// End-to-end flows across the whole stack: generate -> CSV round-trip ->
// encode -> discover -> validate -> infer, as a downstream user would.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "algo/fastod.h"
#include "algo/order.h"
#include "algo/tane.h"
#include "axioms/inference.h"
#include "data/csv.h"
#include "data/encode.h"
#include "gen/date_dim.h"
#include "gen/generators.h"
#include "validate/brute_force.h"
#include "validate/od_validator.h"
#include "validate/violation_scanner.h"
#include "test_util.h"

namespace fastod {
namespace {

TEST(IntegrationTest, CsvRoundTripPreservesDiscovery) {
  Table original = GenFlightLike(300, 10, 123);
  std::string path = ::testing::TempDir() + "/fastod_integration.csv";
  ASSERT_TRUE(WriteCsvFile(original, path).ok());
  auto reread = ReadCsvFile(path);
  ASSERT_TRUE(reread.ok());
  std::remove(path.c_str());

  FastodResult r1 = Fastod().Discover(Encode(original));
  FastodResult r2 = Fastod().Discover(Encode(*reread));
  auto sort_all = [](FastodResult* r) {
    std::sort(r->constancy_ods.begin(), r->constancy_ods.end());
    std::sort(r->compatibility_ods.begin(), r->compatibility_ods.end());
  };
  sort_all(&r1);
  sort_all(&r2);
  EXPECT_EQ(r1.constancy_ods, r2.constancy_ods);
  EXPECT_EQ(r1.compatibility_ods, r2.compatibility_ods);
}

TEST(IntegrationTest, DiscoveredOdsValidateOnTheirData) {
  Table t = GenNcvoterLike(400, 10, 5);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  auto result = Fastod().Discover(*rel);
  OdValidator v(&*rel);
  for (const ConstancyOd& od : result.constancy_ods) {
    EXPECT_TRUE(v.IsConstant(od.context, od.attribute)) << od.ToString();
  }
  for (const CompatibilityOd& od : result.compatibility_ods) {
    EXPECT_TRUE(v.IsOrderCompatible(od.context, od.a, od.b))
        << od.ToString();
  }
}

TEST(IntegrationTest, DiscoveryOutputIsContextMinimal) {
  // The paper's Section 4.1 minimality, audited directly on the output:
  // no emitted OD is subsumed by another via Augmentation-I/II or
  // Propagate. (Note: a minimal set in this sense can still contain ODs
  // derivable through Strengthen/Chain combinations — the guarantee is
  // context-minimality, exactly as with TANE's lhs-minimal FD covers.)
  Table t = GenFlightLike(150, 6, 31);
  FastodResult result = Fastod().Discover(Encode(t));
  for (const ConstancyOd& od : result.constancy_ods) {
    for (const ConstancyOd& other : result.constancy_ods) {
      if (other.attribute == od.attribute && other.context != od.context) {
        EXPECT_FALSE(od.context.ContainsAll(other.context))
            << od.ToString() << " subsumed by " << other.ToString();
      }
    }
  }
  for (const CompatibilityOd& od : result.compatibility_ods) {
    for (const CompatibilityOd& other : result.compatibility_ods) {
      if (other.a == od.a && other.b == od.b && other.context != od.context) {
        EXPECT_FALSE(od.context.ContainsAll(other.context))
            << od.ToString() << " subsumed by " << other.ToString();
      }
    }
    // Propagate: no constancy on either endpoint within (a subset of) the
    // same context — otherwise the compatibility OD would be implied.
    for (const ConstancyOd& c : result.constancy_ods) {
      if (c.attribute == od.a || c.attribute == od.b) {
        EXPECT_FALSE(od.context.ContainsAll(c.context))
            << od.ToString() << " implied via Propagate by " << c.ToString();
      }
    }
  }
}

TEST(IntegrationTest, TaneAgreesWithFastodOnRealisticData) {
  Table t = GenDbtesmaLike(250, 9, 77);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  FastodResult od = Fastod().Discover(*rel);
  TaneResult fd = Tane().Discover(*rel);
  std::vector<ConstancyOd> a = od.constancy_ods;
  std::vector<ConstancyOd> b = fd.fds;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(IntegrationTest, OrderFindsSubsetOfFastodKnowledge) {
  Table t = GenDateDim(200, 1998);
  auto rel = EncodedRelation::FromTable(t);
  ASSERT_TRUE(rel.ok());
  OrderResult order = OrderBaseline().Discover(*rel);
  // Everything ORDER asserts must be certified by the complete canonical
  // knowledge: each mapped piece holds on the data.
  for (const ListOd& od : order.ods) {
    EXPECT_TRUE(BruteHolds(*rel, od)) << od.ToString();
  }
  // And FASTOD additionally knows the constant (d_year over one year...
  // here multiple years, so check the surrogate-key FDs instead).
  FastodResult fast = Fastod().Discover(*rel);
  EXPECT_GT(fast.NumOds(), 0);
}

TEST(IntegrationTest, CleaningWorkflowFindsInjectedError) {
  // Discover ODs on clean data; corrupt one cell; the violated OD set
  // pinpoints the bad tuple.
  Table clean = GenDateDim(120, 1998);
  auto clean_rel = EncodedRelation::FromTable(clean);
  ASSERT_TRUE(clean_rel.ok());
  FastodResult profile = Fastod().Discover(*clean_rel);
  ASSERT_GT(profile.NumOds(), 0);

  // Corrupt d_year of row 60 via CSV surgery.
  std::string csv = WriteCsvString(clean);
  auto corrupted_table = ReadCsvString(csv);
  ASSERT_TRUE(corrupted_table.ok());
  // Rebuild with one modified value.
  TableBuilder b(corrupted_table->schema());
  int year_col = *corrupted_table->schema().IndexOf("d_year");
  for (int64_t r = 0; r < corrupted_table->NumRows(); ++r) {
    std::vector<Value> row;
    for (int c = 0; c < corrupted_table->NumColumns(); ++c) {
      row.push_back((r == 60 && c == year_col) ? Value::Int(1900)
                                               : corrupted_table->at(r, c));
    }
    ASSERT_TRUE(b.AddRow(std::move(row)).ok());
  }
  Table dirty = b.Build();
  auto dirty_rel = EncodedRelation::FromTable(dirty);
  ASSERT_TRUE(dirty_rel.ok());

  ViolationScanner scanner(&*dirty_rel);
  std::vector<int64_t> counts(dirty.NumRows(), 0);
  for (const ConstancyOd& od : profile.constancy_ods) {
    for (const Violation& v : scanner.Scan(CanonicalOd(od))) {
      ++counts[v.tuple_s];
      ++counts[v.tuple_t];
    }
  }
  for (const CompatibilityOd& od : profile.compatibility_ods) {
    for (const Violation& v : scanner.Scan(CanonicalOd(od))) {
      ++counts[v.tuple_s];
      ++counts[v.tuple_t];
    }
  }
  // The corrupted tuple must participate in violations and be among the
  // dirtiest (swap/split pairs implicate the clean witness too, so an
  // exact argmax would be witness-dependent).
  int64_t max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(counts[60], 0);
  EXPECT_EQ(counts[60], max_count);
}

TEST(IntegrationTest, WideRelationStaysWithinBudget) {
  // 20 attributes on a small sample completes quickly thanks to pruning
  // (the paper's flight 1K×20 case finishes in under a second).
  Table t = GenFlightLike(500, 20, 2);
  ExecutionControl control;
  control.SetDeadlineAfterMillis(60'000);
  FastodOptions opt;
  opt.control = &control;
  FastodResult result = Fastod(opt).Discover(Encode(t));
  EXPECT_FALSE(result.timed_out);
  EXPECT_GT(result.NumOds(), 0);
}

}  // namespace
}  // namespace fastod
