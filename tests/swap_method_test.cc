// Engine-level equivalence of the swap-check methods: `auto` (witness
// sample, then a full τ/sort scan), `sort` and `tau` must produce the same
// ODs in the same order and request the same swap checks per level, at
// every thread count and with or without the bidirectional extension.
// Only the explicit methods are pure strategies: they never take the
// sample stage, so every swap check they run is a full scan.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "algo/fastod.h"
#include "data/encode.h"
#include "gen/generators.h"

namespace fastod {
namespace {

struct SwapMethodParam {
  std::string name;
  Table (*generate)(int64_t rows, int attributes, uint64_t seed);
  int64_t rows;
  int attributes;
};

// Named by its fields, so the test names ctest discovers are the same in
// every build (the default printer dumps the struct's bytes, padding
// and the generator's address included).
void PrintTo(const SwapMethodParam& p, std::ostream* os) {
  *os << p.name << "_rows" << p.rows << "_attrs" << p.attributes;
}

// One test per (dataset, thread count), so each stays short under the
// sanitizers.
class SwapMethodEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SwapMethodParam, int>> {};

TEST_P(SwapMethodEquivalenceTest, SameOdsAndSwapChecksPerLevel) {
  const auto& [param, threads] = GetParam();
  auto rel = EncodedRelation::FromTable(
      param.generate(param.rows, param.attributes, 42));
  ASSERT_TRUE(rel.ok());
  for (bool bidirectional : {false, true}) {
    SCOPED_TRACE("bidirectional=" + std::to_string(bidirectional));
    FastodOptions options;
    options.num_threads = threads;
    options.discover_bidirectional = bidirectional;
    options.swap_method = SwapCheckMethod::kAuto;
    const FastodResult automatic = Fastod(options).Discover(*rel);
    int64_t refutes = 0;
    for (const FastodLevelStats& level : automatic.level_stats) {
      refutes += level.swap_sample_refutes;
      EXPECT_LE(level.swap_sample_refutes + level.swap_full_scans,
                level.swap_checks);
    }
    for (SwapCheckMethod method :
         {SwapCheckMethod::kSortBased, SwapCheckMethod::kTauBased}) {
      options.swap_method = method;
      const FastodResult explicit_method = Fastod(options).Discover(*rel);
      EXPECT_EQ(explicit_method.constancy_ods, automatic.constancy_ods);
      EXPECT_EQ(explicit_method.compatibility_ods,
                automatic.compatibility_ods);
      EXPECT_EQ(explicit_method.bidirectional_ods,
                automatic.bidirectional_ods);
      ASSERT_EQ(explicit_method.level_stats.size(),
                automatic.level_stats.size());
      for (size_t i = 0; i < automatic.level_stats.size(); ++i) {
        const FastodLevelStats& level = explicit_method.level_stats[i];
        EXPECT_EQ(level.nodes, automatic.level_stats[i].nodes);
        EXPECT_EQ(level.swap_checks, automatic.level_stats[i].swap_checks)
            << "level " << level.level;
        EXPECT_EQ(level.swap_sample_refutes, 0);
        EXPECT_EQ(level.swap_full_scans, level.swap_checks);
      }
    }
    if (param.rows > SwapChecker::kSampleTuples) {
      EXPECT_GT(refutes, 0) << "the sample stage never refuted";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Generators, SwapMethodEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(
            SwapMethodParam{"flight", GenFlightLike, 5000, 12},
            SwapMethodParam{"ncvoter", GenNcvoterLike, 5000, 12},
            SwapMethodParam{"dbtesma", GenDbtesmaLike, 2000, 12},
            SwapMethodParam{"hepatitis", GenHepatitisLike, 155, 16}),
        ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<SwapMethodParam, int>>&
           info) {
      return std::get<0>(info.param).name + "_threads" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace fastod
