// Figure 5 reproduction: scalability and effectiveness in the number of
// attributes |R| at a fixed (small) row count, on flight-, hepatitis-,
// ncvoter- and dbtesma-like data.
//
// Expected shapes (paper): runtime grows exponentially in |R| for TANE and
// FASTOD (log-scale Y in the paper); ORDER explodes factorially on data
// with surviving candidates (flight: did not terminate at >= 20 attributes
// — represented here by its timeout) yet terminates quickly on swap-heavy
// data where its pruning kills the lattice while *finding nothing*
// (ncvoter/hepatitis: 0 ODs vs FASTOD's hundreds+).
#include <vector>

#include "bench_util.h"
#include "gen/generators.h"

namespace {

using namespace fastod;
using namespace fastod::bench;

using Generator = Table (*)(int64_t, int, uint64_t);

void RunDataset(const char* name, Generator gen, int64_t rows,
                const std::vector<int>& widths, double order_timeout) {
  std::printf("\n--- %s-like, %lld rows ---\n", name,
              static_cast<long long>(rows));
  std::printf("%-6s | %-12s | %-12s | %-26s | %-12s | %s\n", "attrs",
              "TANE", "FASTOD", "FASTOD #ODs (fd+ocd)", "ORDER",
              "ORDER #ODs");
  for (int attrs : widths) {
    Table table = gen(rows, attrs, 42);
    auto rel = EncodedRelation::FromTable(table);
    if (!rel.ok()) return;
    AlgoCell tane = RunTane(*rel, 60.0);
    AlgoCell fast = RunFastod(*rel, FastodOptions(), 120.0);
    AlgoCell order = RunOrder(*rel, order_timeout);
    std::string params = std::string("dataset=") + name +
                         " rows=" + std::to_string(rows) +
                         " attrs=" + std::to_string(attrs);
    RecordJson(params + " algo=tane", tane.seconds);
    RecordJson(params + " algo=fastod", fast.seconds);
    RecordJson(params + " algo=order", order.seconds);
    std::printf("%-6d | %-12s | %-12s | %-26s | %-12s | %s\n", attrs,
                tane.TimeString().c_str(), fast.TimeString().c_str(),
                fast.counts.c_str(), order.TimeString().c_str(),
                order.counts.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  int scale = ParseScale(argc, argv);
  BenchJson json("bench_fig5_scale_cols", argc, argv);
  PrintHeader("Exp-2/3/4 — scalability in |R| (Figure 5)",
              "runtime exponential in |R|; ORDER times out on flight-like "
              "data but is fast-and-empty on swap-heavy data");
  std::vector<int> widths{4, 8, 12, 14};
  if (scale > 1) widths.push_back(14 + 2 * scale);
  RunDataset("flight", &GenFlightLike, 500 * scale, widths, 10.0);
  RunDataset("hepatitis", &GenHepatitisLike, 155, widths, 10.0);
  RunDataset("ncvoter", &GenNcvoterLike, 500 * scale, widths, 10.0);
  RunDataset("dbtesma", &GenDbtesmaLike, 500 * scale, widths, 10.0);
  return 0;
}
