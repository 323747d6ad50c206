// Quickstart: discover order dependencies on the paper's running example
// (Table 1 — employee salaries and taxes), print them, and interpret the
// result through the Theorem 5 mapping.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>
#include <string>

#include "fastod/fastod.h"

int main() {
  using namespace fastod;

  // Table 1 of the paper: tax is a percentage of salary; groups, subgroups
  // and bins are salary bands.
  Table table = EmployeeTaxTable();
  std::printf("Input relation (Table 1 of the paper):\n%s\n",
              table.ToString().c_str());

  // Discover the complete, minimal set of set-based canonical ODs through
  // the unified Algorithm API: every engine ("fastod", "tane", "order",
  // "brute-force", "approximate", "conditional") is created by name from
  // the registry and configured through its typed option registry.
  // Engines bind a LoadedDataset: the relation encoded once as
  // order-preserving integer codes, with its level-1 partitions built.
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  if (!encoded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 encoded.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const LoadedDataset> dataset =
      LoadedDataset::Build("employee", *std::move(encoded), "Table 1");
  auto discovery = AlgorithmRegistry::Default().Create("fastod");
  if (!discovery.ok() || !(*discovery)->BindDataset(dataset).ok()) return 1;
  if (Status s = (*discovery)->Execute(); !s.ok()) {
    std::fprintf(stderr, "discovery failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const FastodResult& result =
      static_cast<const FastodAlgorithm&>(**discovery).result();

  std::printf("Discovered %s minimal canonical ODs "
              "(#constancy/FDs + #order-compatibility/OCDs) in %.3fs\n\n",
              result.CountsToString().c_str(),
              (*discovery)->execute_seconds());

  std::printf("Constancy ODs  X: [] -> A   (A constant per X-class; FD X->A):\n");
  for (const ConstancyOd& od : result.constancy_ods) {
    std::printf("  %s\n", od.ToString(table.schema()).c_str());
  }
  std::printf("\nOrder compatibility ODs  X: A ~ B   (no swaps per X-class):\n");
  for (const CompatibilityOd& od : result.compatibility_ods) {
    std::printf("  %s\n", od.ToString(table.schema()).c_str());
  }

  // Interpret: the paper's Example 1 claims [salary] orders [tax]. By
  // Theorem 5 that list-based OD decomposes into canonical pieces; verify
  // each against the data.
  OdValidator validator(&dataset->relation());
  int sal = *table.schema().IndexOf("sal");
  int tax = *table.schema().IndexOf("tax");
  ListOd salary_orders_tax{{sal}, {tax}};
  std::printf("\nChecking the list OD  %s  via its canonical image:\n",
              salary_orders_tax.ToString(table.schema()).c_str());
  bool all_hold = true;
  for (const CanonicalOd& piece : MapListOdToCanonical(salary_orders_tax)) {
    bool holds = validator.Holds(piece);
    all_hold = all_hold && holds;
    std::printf("  %-28s %s\n",
                CanonicalOdToString(piece, table.schema()).c_str(),
                holds ? "holds" : "VIOLATED");
  }
  std::printf("=> [sal] orders [tax]: %s (direct check: %s)\n",
              all_hold ? "holds" : "violated",
              validator.Holds(salary_orders_tax) ? "holds" : "violated");

  // And a negative: salary ~ subgroup has a swap (Example 3).
  int subg = *table.schema().IndexOf("subg");
  ViolationScanner scanner(&*encoded);
  auto swaps = scanner.ScanCompatibility(AttributeSet::Empty(), sal, subg);
  std::printf("\n[sal] ~ [subg] is violated by %zu swap pair(s), e.g. %s\n",
              swaps.size(),
              swaps.empty() ? "-" : swaps[0].ToString().c_str());
  return 0;
}
