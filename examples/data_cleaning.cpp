// Data cleaning with ODs: profile a clean sample, then use the discovered
// dependencies as integrity constraints to locate errors injected into a
// dirty copy (Section 1.1: "their violations point out possible data
// errors").
#include <cstdio>
#include <algorithm>
#include <vector>

#include "fastod/fastod.h"

int main() {
  using namespace fastod;

  // A clean flight-like table: year constant, date hierarchy, route ->
  // distance -> duration chain (duration is column 10, so ask for 12).
  const int64_t kRows = 2000;
  Table clean = GenFlightLike(kRows, 12, 7);

  // Step 1: profile the clean data.
  Result<EncodedRelation> clean_encoded = EncodedRelation::FromTable(clean);
  if (!clean_encoded.ok()) {
    std::fprintf(stderr, "profiling failed: %s\n",
                 clean_encoded.status().ToString().c_str());
    return 1;
  }
  const FastodResult profile = Fastod().Discover(*clean_encoded);
  std::printf("Profiled clean data: %s minimal ODs\n",
              profile.CountsToString().c_str());

  // Step 2: corrupt three cells (simulating entry errors).
  const Schema& schema = clean.schema();
  int duration = *schema.IndexOf("duration");
  int quarter = *schema.IndexOf("quarter");
  struct Injection {
    int64_t row;
    int col;
    Value bad;
  };
  std::vector<Injection> injections = {
      {137, duration, Value::Int(9999)},   // absurd duration for the route
      {1042, quarter, Value::Int(1)},      // quarter inconsistent w/ month
      {1763, duration, Value::Int(1)},     // impossibly short flight
  };
  TableBuilder builder(schema);
  for (int64_t r = 0; r < clean.NumRows(); ++r) {
    std::vector<Value> row;
    for (int c = 0; c < clean.NumColumns(); ++c) {
      Value v = clean.at(r, c);
      for (const Injection& inj : injections) {
        if (inj.row == r && inj.col == c) v = inj.bad;
      }
      row.push_back(std::move(v));
    }
    builder.AddRowUnchecked(std::move(row));
  }
  Table dirty = builder.Build();
  std::printf("Injected %zu errors into rows", injections.size());
  for (const Injection& inj : injections) {
    std::printf(" %lld", static_cast<long long>(inj.row));
  }
  std::printf("\n\n");

  // Step 3: re-validate the profiled ODs on the dirty data and accumulate
  // per-tuple violation counts.
  auto encoded = EncodedRelation::FromTable(dirty);
  if (!encoded.ok()) return 1;
  ViolationScanner scanner(&*encoded);
  std::vector<int64_t> counts(dirty.NumRows(), 0);
  int violated_ods = 0;
  ScanOptions scan_options;
  scan_options.max_violations = 10000;
  auto accumulate = [&](const CanonicalOd& od) {
    auto violations = scanner.Scan(od, scan_options);
    if (violations.empty()) return;
    ++violated_ods;
    for (const Violation& v : violations) {
      ++counts[v.tuple_s];
      ++counts[v.tuple_t];
    }
  };
  for (const ConstancyOd& od : profile.constancy_ods) {
    accumulate(CanonicalOd(od));
  }
  for (const CompatibilityOd& od : profile.compatibility_ods) {
    accumulate(CanonicalOd(od));
  }
  std::printf("%d of %lld profiled ODs are violated on the dirty copy.\n",
              violated_ods, static_cast<long long>(profile.NumOds()));

  // Step 4: rank tuples by dirtiness.
  std::vector<int64_t> order(dirty.NumRows());
  for (int64_t i = 0; i < dirty.NumRows(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&counts](int64_t a, int64_t b) {
    if (counts[a] != counts[b]) return counts[a] > counts[b];
    return a < b;
  });
  std::printf("\nTop suspect tuples (violations -> row):\n");
  for (int i = 0; i < 8 && counts[order[i]] > 0; ++i) {
    bool injected = false;
    for (const Injection& inj : injections) {
      if (inj.row == order[i]) injected = true;
    }
    std::printf("  row %-6lld %-6lld violations %s\n",
                static_cast<long long>(order[i]),
                static_cast<long long>(counts[order[i]]),
                injected ? "<== injected error" : "");
  }
  return 0;
}
