// Approximate OD discovery (the paper's future-work extension, Section 7):
// on noisy data, exact discovery loses the business rules that "almost"
// hold; a small error threshold recovers them.
#include <cstdio>
#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "fastod/fastod.h"

int main() {
  using namespace fastod;

  // A voters table with 1% simulated entry noise in the zip column: the
  // FD city -> zip (and its order compatibility) holds on 99% of rows.
  const int64_t kRows = 2000;
  Table clean = GenNcvoterLike(kRows, 8, 17);
  const Schema& schema = clean.schema();
  int city = *schema.IndexOf("city");
  int zip = *schema.IndexOf("zip");

  Rng rng(4242);
  TableBuilder builder(schema);
  int64_t corrupted = 0;
  for (int64_t r = 0; r < clean.NumRows(); ++r) {
    std::vector<Value> row;
    for (int c = 0; c < clean.NumColumns(); ++c) {
      Value v = clean.at(r, c);
      if (c == zip && rng.Chance(0.01)) {
        v = Value::Int(10000 + rng.Uniform(90000));  // typo'd zip
        ++corrupted;
      }
      row.push_back(std::move(v));
    }
    builder.AddRowUnchecked(std::move(row));
  }
  Table noisy = builder.Build();
  std::printf("Corrupted %lld of %lld zip values (~1%%).\n\n",
              static_cast<long long>(corrupted),
              static_cast<long long>(kRows));

  auto encoded = EncodedRelation::FromTable(noisy);
  if (!encoded.ok()) return 1;

  // The rule we care about.
  ConstancyOd city_zip{AttributeSet::Single(city), zip};
  std::printf("g3 error of {city}: [] -> zip on the noisy data: %.4f\n\n",
              CanonicalOdError(*encoded, CanonicalOd(city_zip)));

  std::printf("%-10s %-14s %-28s %s\n", "epsilon", "ODs found",
              "(constancy + compat)", "city->zip recovered?");
  // One "approximate" Algorithm instance, reconfigured per threshold
  // through its typed option registry and re-executed on the loaded data.
  std::shared_ptr<const LoadedDataset> dataset =
      LoadedDataset::Build("noisy", *encoded, "generated");
  auto algo = AlgorithmRegistry::Default().Create("approximate");
  if (!algo.ok() || !(*algo)->BindDataset(dataset).ok()) return 1;
  for (double eps : {0.0, 0.005, 0.02, 0.05}) {
    char eps_text[32];
    std::snprintf(eps_text, sizeof(eps_text), "%g", eps);
    if (!(*algo)->SetOption("max-error", eps_text).ok()) return 1;
    if (!(*algo)->Execute().ok()) return 1;
    const FastodResult& result =
        static_cast<const FastodAlgorithm&>(**algo).result();
    bool recovered =
        std::find(result.constancy_ods.begin(), result.constancy_ods.end(),
                  city_zip) != result.constancy_ods.end();
    char counts[64];
    std::snprintf(counts, sizeof(counts), "(%lld + %lld)",
                  static_cast<long long>(result.num_constancy),
                  static_cast<long long>(result.num_compatibility));
    std::printf("%-10.3f %-14lld %-28s %s\n", eps,
                static_cast<long long>(result.NumOds()), counts,
                recovered ? "yes" : "no");
  }
  std::printf(
      "\nWith eps=0 the noise kills the rule; a threshold just above the\n"
      "noise rate recovers it without flooding the result with accidental\n"
      "dependencies (large eps would).\n");
  return 0;
}
