#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/encode.h"
#include "gen/random_table.h"
#include "partition/partition_cache.h"
#include "partition/stripped_partition.h"
#include "test_util.h"

namespace fastod {
namespace {

TEST(StrippedPartitionTest, UniverseIsOneClass) {
  StrippedPartition p = StrippedPartition::Universe(4);
  EXPECT_EQ(p.NumClasses(), 1);
  EXPECT_EQ(p.NumElements(), 4);
  EXPECT_EQ(p.Error(), 3);
  EXPECT_FALSE(p.IsSuperkey());
}

TEST(StrippedPartitionTest, UniverseOfTinyRelationsIsEmpty) {
  EXPECT_TRUE(StrippedPartition::Universe(0).IsSuperkey());
  EXPECT_TRUE(StrippedPartition::Universe(1).IsSuperkey());
}

TEST(StrippedPartitionTest, ForAttributeStripsSingletons) {
  // ranks: 0,1,0,2,1 -> classes {0,2},{1,4}, singleton {3} stripped.
  std::vector<int32_t> ranks{0, 1, 0, 2, 1};
  StrippedPartition p = StrippedPartition::ForAttribute(ranks, 3);
  EXPECT_EQ(p.NumClasses(), 2);
  EXPECT_EQ(p.NumElements(), 4);
  EXPECT_EQ(p.Error(), 2);
  // Classes come in ascending rank order.
  EXPECT_EQ(std::vector<int32_t>(p.Class(0).begin(), p.Class(0).end()),
            (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(std::vector<int32_t>(p.Class(1).begin(), p.Class(1).end()),
            (std::vector<int32_t>{1, 4}));
}

TEST(StrippedPartitionTest, KeyAttributeYieldsSuperkeyPartition) {
  std::vector<int32_t> ranks{3, 0, 2, 1};
  StrippedPartition p = StrippedPartition::ForAttribute(ranks, 4);
  EXPECT_TRUE(p.IsSuperkey());
  EXPECT_EQ(p.Error(), 0);
}

TEST(StrippedPartitionTest, ProductRefines) {
  // A: {0,1,2,3} in one class split by B: 0,0,1,1.
  StrippedPartition a = StrippedPartition::Universe(4);
  StrippedPartition b =
      StrippedPartition::ForAttribute({0, 0, 1, 1}, 2);
  StrippedPartition ab = a.Product(b);
  EXPECT_EQ(ab, b);
}

TEST(StrippedPartitionTest, ProductDropsCrossSingletons) {
  // A classes: {0,1},{2,3}; B classes: {1,2},{0,3} -> all intersections
  // singletons -> product is a superkey partition.
  StrippedPartition a = StrippedPartition::ForAttribute({0, 0, 1, 1}, 2);
  StrippedPartition b = StrippedPartition::ForAttribute({0, 1, 1, 0}, 2);
  StrippedPartition ab = a.Product(b);
  EXPECT_TRUE(ab.IsSuperkey());
}

TEST(StrippedPartitionTest, ProductIsCommutative) {
  StrippedPartition a =
      StrippedPartition::ForAttribute({0, 0, 1, 1, 2, 2}, 3);
  StrippedPartition b =
      StrippedPartition::ForAttribute({0, 1, 0, 1, 0, 0}, 2);
  EXPECT_EQ(a.Product(b), b.Product(a));
}

TEST(StrippedPartitionTest, FillClassIndexMarksSingletonsMinusOne) {
  std::vector<int32_t> ranks{0, 1, 0, 2};
  StrippedPartition p = StrippedPartition::ForAttribute(ranks, 3);
  std::vector<int32_t> class_of;
  p.FillClassIndex(&class_of);
  ASSERT_EQ(class_of.size(), 4u);
  EXPECT_EQ(class_of[0], class_of[2]);
  EXPECT_GE(class_of[0], 0);
  EXPECT_EQ(class_of[1], -1);
  EXPECT_EQ(class_of[3], -1);
}

TEST(StrippedPartitionTest, BuilderDropsSubPairClasses) {
  PartitionBuilder b(5);
  b.BeginClass();
  b.AddTuple(0);
  b.EndClass();  // singleton -> dropped
  b.BeginClass();
  b.EndClass();  // empty -> dropped
  b.BeginClass();
  b.AddTuple(1);
  b.AddTuple(2);
  b.EndClass();
  StrippedPartition p = b.Build();
  EXPECT_EQ(p.NumClasses(), 1);
  EXPECT_EQ(p.NumElements(), 2);
}

TEST(StrippedPartitionTest, ToStringRendersClasses) {
  StrippedPartition p = StrippedPartition::ForAttribute({0, 0, 1}, 2);
  EXPECT_EQ(p.ToString(), "{{0,1}}");
}

// Property: folding single-attribute partitions with Product() equals the
// direct hash-based construction, for random attribute subsets.
class PartitionProductPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionProductPropertyTest, ProductMatchesDirectConstruction) {
  Table t = GenRandomTable(50, 5, 4, GetParam());
  EncodedRelation rel = Encode(t);
  // All 2^5 - 1 nonempty subsets.
  for (uint64_t mask = 1; mask < 32; ++mask) {
    StrippedPartition via_product;
    bool first = true;
    std::vector<const CodeColumn*> columns;
    for (int a = 0; a < 5; ++a) {
      if (!(mask & (uint64_t{1} << a))) continue;
      StrippedPartition single =
          StrippedPartition::ForAttribute(rel.codes(a));
      via_product = first ? single : via_product.Product(single);
      first = false;
      columns.push_back(&rel.codes(a));
    }
    StrippedPartition direct =
        StrippedPartition::FromCodeColumns(columns, rel.NumRows());
    EXPECT_EQ(via_product, direct) << "mask=" << mask;
  }
}

TEST_P(PartitionProductPropertyTest, ErrorIsMonotoneUnderRefinement) {
  Table t = GenRandomTable(60, 4, 5, GetParam());
  EncodedRelation rel = Encode(t);
  StrippedPartition a = StrippedPartition::ForAttribute(rel.codes(0));
  StrippedPartition prev = a;
  for (int c = 1; c < 4; ++c) {
    StrippedPartition next =
        prev.Product(StrippedPartition::ForAttribute(rel.codes(c)));
    EXPECT_LE(next.Error(), prev.Error());
    prev = next;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProductPropertyTest,
                         ::testing::Values(3, 7, 13, 29, 41, 59));

TEST(StrippedPartitionTest, RefineSplitsClassesInParentOrder) {
  // Parent classes {0,2,4,5} then {1,3,6}; the codes split the first into
  // {0,5} (code 2, seen first) and {2,4} (code 0), and leave {1,3,6} with
  // one singleton ({6}, code 1) stripped.
  StrippedPartition parent =
      StrippedPartition::ForAttribute({0, 1, 0, 1, 0, 0, 1}, 2);
  const CodeColumn codes = CodeColumn::FromRanks({2, 0, 0, 0, 0, 2, 1}, 3);
  StrippedPartition refined = parent.Refine(codes);
  EXPECT_EQ(refined.ToString(), "{{0,5},{2,4},{1,3}}");
}

// Property: Refine(Π*_X, codes(A)) equals the direct construction of
// Π*_{X∪{A}}, for every X and A ∉ X over columns that include a constant
// (num_distinct 1) and an all-distinct one (every X holding it is a
// superkey, so its partition is empty), at row counts down to 0.
class PartitionRefinePropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionRefinePropertyTest, RefineMatchesDirectConstruction) {
  for (int64_t n : {0, 1, 2, 5, 64, 300}) {
    Rng rng(GetParam() * 1000 + static_cast<uint64_t>(n));
    std::vector<CodeColumn> columns;
    std::vector<int32_t> constant(n, 0), distinct(n);
    for (int64_t t = 0; t < n; ++t) distinct[t] = static_cast<int32_t>(t);
    for (int64_t t = n - 1; t > 0; --t) {
      std::swap(distinct[t], distinct[rng.Uniform(t + 1)]);
    }
    columns.push_back(CodeColumn::FromRanks(constant, 1));
    columns.push_back(
        CodeColumn::FromRanks(distinct, static_cast<int32_t>(n)));
    for (int32_t domain : {2, 3, 7}) {
      std::vector<int32_t> ranks(n);
      for (int32_t& r : ranks) r = static_cast<int32_t>(rng.Uniform(domain));
      columns.push_back(CodeColumn::FromRanks(ranks, domain));
    }
    const int m = static_cast<int>(columns.size());
    auto direct = [&](uint32_t mask) {
      std::vector<const CodeColumn*> cols;
      for (int x = 0; x < m; ++x) {
        if (mask & (1u << x)) cols.push_back(&columns[x]);
      }
      return StrippedPartition::FromCodeColumns(cols, n);
    };
    for (uint32_t mask = 0; mask < (1u << m); ++mask) {
      const StrippedPartition parent = direct(mask);
      std::vector<int32_t> parent_class;
      parent.FillClassIndex(&parent_class);
      for (int a = 0; a < m; ++a) {
        if (mask & (1u << a)) continue;
        const StrippedPartition refined = parent.Refine(columns[a]);
        EXPECT_EQ(refined, direct(mask | (1u << a)))
            << "n=" << n << " mask=" << mask << " a=" << a;
        // Members ascending; classes in the parent's class order.
        int32_t last_parent_class = -1;
        for (int32_t c = 0; c < refined.NumClasses(); ++c) {
          auto cls = refined.Class(c);
          EXPECT_TRUE(std::is_sorted(cls.begin(), cls.end()));
          EXPECT_GE(parent_class[cls[0]], last_parent_class);
          last_parent_class = parent_class[cls[0]];
        }
      }
    }
  }
}

// The classes of `p` in stored order, members in stored order.
std::vector<std::vector<int32_t>> ClassesInOrder(const StrippedPartition& p) {
  std::vector<std::vector<int32_t>> classes;
  for (int32_t c = 0; c < p.NumClasses(); ++c) {
    classes.emplace_back(p.Class(c).begin(), p.Class(c).end());
  }
  return classes;
}

// The refinement written out the slow way: each parent class, in order,
// grouped by code in first-seen code order, members in parent order,
// singleton groups dropped.
std::vector<std::vector<int32_t>> NaiveRefine(const StrippedPartition& parent,
                                              const CodeColumn& codes) {
  std::vector<std::vector<int32_t>> classes;
  for (int32_t c = 0; c < parent.NumClasses(); ++c) {
    std::map<uint32_t, size_t> group_of;  // code -> index in groups
    std::vector<std::vector<int32_t>> groups;
    for (int32_t t : parent.Class(c)) {
      const auto [it, first] = group_of.emplace(codes[t], groups.size());
      if (first) groups.emplace_back();
      groups[it->second].push_back(t);
    }
    for (std::vector<int32_t>& group : groups) {
      if (group.size() >= 2) classes.push_back(std::move(group));
    }
  }
  return classes;
}

// Refine and Product against NaiveRefine, class by class and in order,
// on parents of random, 2- and 3-member and universe classes and an empty
// parent, by code domains from 1 to past the parent's element count and
// an all-distinct column (an all-singleton result). One scratch serves
// every call, across columns and relation sizes, so slot state a call
// leaves behind would corrupt a later one.
TEST_P(PartitionRefinePropertyTest, RefineMatchesNaiveReferenceInOrder) {
  RefineScratch scratch;
  for (int64_t n : {0, 1, 2, 3, 7, 64, 1000, 20000}) {
    Rng rng(GetParam() * 7919 + static_cast<uint64_t>(n));
    auto random_column = [&](int64_t domain) {
      std::vector<int32_t> ranks(n);
      for (int32_t& r : ranks) r = static_cast<int32_t>(rng.Uniform(domain));
      return CodeColumn::FromRanks(ranks, static_cast<int32_t>(domain));
    };
    std::vector<int32_t> permutation(n);
    for (int64_t t = 0; t < n; ++t) permutation[t] = static_cast<int32_t>(t);
    for (int64_t t = n - 1; t > 0; --t) {
      std::swap(permutation[t], permutation[rng.Uniform(t + 1)]);
    }
    // Codes 0,0,1,1,1,2,2,3,3,3,... over the shuffled rows: classes of
    // two and three members (the last one may be a stripped singleton).
    std::vector<int32_t> pairs_and_triples(n);
    int32_t groups = 0;
    for (int64_t i = 0; i < n; ++groups) {
      for (int64_t j = 0; j < 2 + groups % 2 && i < n; ++j, ++i) {
        pairs_and_triples[permutation[i]] = groups;
      }
    }
    const CodeColumn distinct = CodeColumn::FromRanks(
        permutation, static_cast<int32_t>(std::max<int64_t>(n, 1)));
    std::vector<StrippedPartition> parents = {
        StrippedPartition::Universe(n),
        StrippedPartition::ForAttribute(pairs_and_triples,
                                        std::max(groups, 1)),
        StrippedPartition::ForAttribute(random_column(3)),
        StrippedPartition::ForAttribute(random_column(n / 4 + 1)),
        StrippedPartition::ForAttribute(distinct),  // empty
    };
    parents.push_back(parents[3].Refine(random_column(2), &scratch));
    std::vector<CodeColumn> columns;
    for (int64_t domain : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{7},
                           n / 8 + 1, n + 5}) {
      columns.push_back(random_column(domain));
    }
    columns.push_back(distinct);
    for (size_t p = 0; p < parents.size(); ++p) {
      for (size_t a = 0; a < columns.size(); ++a) {
        SCOPED_TRACE("n=" + std::to_string(n) + " parent=" +
                     std::to_string(p) + " column=" + std::to_string(a));
        const auto want = NaiveRefine(parents[p], columns[a]);
        const StrippedPartition refined =
            parents[p].Refine(columns[a], &scratch);
        EXPECT_EQ(ClassesInOrder(refined), want);
        EXPECT_EQ(refined.num_rows(), n);
        EXPECT_EQ(ClassesInOrder(parents[p].Refine(columns[a])), want);
        EXPECT_EQ(ClassesInOrder(parents[p].Product(
                      StrippedPartition::ForAttribute(columns[a]))),
                  want);
      }
    }
    // The all-distinct column leaves no class of a non-empty parent.
    EXPECT_TRUE(parents[0].Refine(distinct, &scratch).IsSuperkey());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionRefinePropertyTest,
                         ::testing::Values(1, 5, 17, 23, 101));

// The lattice walk's scratch protocol on its own: refines run on a pool,
// each in the scratch of its party (ThreadPool::CurrentParty), and give
// what serial refines give. Under TSan a party sharing a scratch races.
TEST(RefineScratchTest, PerPartyScratchOnAPoolMatchesSerial) {
  constexpr int kParties = 4;
  constexpr int64_t kRows = 3000;
  Rng rng(11);
  std::vector<CodeColumn> columns;
  for (int64_t domain : {2, 5, 40, 700}) {
    std::vector<int32_t> ranks(kRows);
    for (int32_t& r : ranks) r = static_cast<int32_t>(rng.Uniform(domain));
    columns.push_back(
        CodeColumn::FromRanks(ranks, static_cast<int32_t>(domain)));
  }
  const int num_columns = static_cast<int>(columns.size());
  std::vector<StrippedPartition> parents;
  for (const CodeColumn& codes : columns) {
    parents.push_back(StrippedPartition::ForAttribute(codes));
  }
  std::vector<StrippedPartition> serial;
  for (int i = 0; i < 64; ++i) {
    serial.push_back(parents[i % num_columns].Refine(
        columns[(i / num_columns) % num_columns]));
  }
  std::vector<RefineScratch> scratch(kParties);
  std::vector<StrippedPartition> pooled(serial.size());
  ThreadPool pool(kParties - 1);
  pool.ParallelFor(static_cast<int64_t>(serial.size()), [&](int64_t i) {
    pooled[i] = parents[i % num_columns].Refine(
        columns[(i / num_columns) % num_columns],
        &scratch[ThreadPool::CurrentParty()]);
  });
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(ClassesInOrder(pooled[i]), ClassesInOrder(serial[i])) << i;
  }
}

TEST(PartitionCacheTest, PutGetEvict) {
  PartitionCache cache;
  cache.Put(0, AttributeSet::Empty(), StrippedPartition::Universe(3));
  cache.Put(1, AttributeSet::Single(0),
            StrippedPartition::ForAttribute({0, 0, 1}, 2));
  EXPECT_EQ(cache.NumCached(), 2);
  EXPECT_TRUE(cache.Contains(AttributeSet::Empty()));
  EXPECT_EQ(cache.Get(AttributeSet::Single(0)).NumClasses(), 1);
  cache.EvictBelow(1);
  EXPECT_FALSE(cache.Contains(AttributeSet::Empty()));
  EXPECT_TRUE(cache.Contains(AttributeSet::Single(0)));
  EXPECT_EQ(cache.NumCached(), 1);
}

TEST(PartitionCacheTest, TotalElementsSums) {
  PartitionCache cache;
  cache.Put(0, AttributeSet::Empty(), StrippedPartition::Universe(5));
  cache.Put(1, AttributeSet::Single(0),
            StrippedPartition::ForAttribute({0, 0, 1, 1, 2}, 3));
  EXPECT_EQ(cache.TotalElements(), 5 + 4);
}

TEST(PartitionCacheTest, EvictBelowOnEmptyCacheIsANoOp) {
  PartitionCache cache;
  cache.EvictBelow(0);
  cache.EvictBelow(5);
  EXPECT_EQ(cache.NumCached(), 0);
  EXPECT_EQ(cache.TotalElements(), 0);
  EXPECT_FALSE(cache.Contains(AttributeSet::Empty()));
}

TEST(PartitionCacheTest, TotalElementsTracksEvictionAndStripping) {
  PartitionCache cache;
  // Universe(1): a single row is a singleton class, stripped away — the
  // partition contributes zero elements.
  cache.Put(0, AttributeSet::Empty(), StrippedPartition::Universe(1));
  EXPECT_EQ(cache.TotalElements(), 0);
  EXPECT_EQ(cache.NumCached(), 1);
  // {0,0,1}: one two-element class ({rows 0,1}), one stripped singleton.
  cache.Put(1, AttributeSet::Single(0),
            StrippedPartition::ForAttribute({0, 0, 1}, 2));
  // All-distinct ranks: everything stripped.
  cache.Put(1, AttributeSet::Single(1),
            StrippedPartition::ForAttribute({0, 1, 2}, 3));
  EXPECT_EQ(cache.TotalElements(), 2);

  cache.EvictBelow(1);
  EXPECT_EQ(cache.NumCached(), 2);
  EXPECT_EQ(cache.TotalElements(), 2);
  cache.EvictBelow(2);
  EXPECT_EQ(cache.NumCached(), 0);
  EXPECT_EQ(cache.TotalElements(), 0);
  // Re-populating after a full eviction starts clean.
  cache.Put(2, AttributeSet::Single(0).With(1),
            StrippedPartition::ForAttribute({0, 0, 0, 1}, 2));
  EXPECT_EQ(cache.NumCached(), 1);
  EXPECT_EQ(cache.TotalElements(), 3);
}

// A relation with planted structure for the derive step: a constant
// column c, a key column k, a random column a, b = a / 2 (so a -> b), and
// a blocked column d.
class PartitionDeriveTest : public ::testing::Test {
 protected:
  enum Attr { kC = 0, kK = 1, kA = 2, kB = 3, kD = 4 };
  static constexpr int64_t kRows = 40;

  PartitionDeriveTest() {
    std::vector<int32_t> c(kRows, 0), k(kRows), a(kRows), b(kRows), d(kRows);
    for (int64_t t = 0; t < kRows; ++t) {
      k[t] = static_cast<int32_t>(t);
      a[t] = static_cast<int32_t>((t * 7 + 3) % 6);
      b[t] = a[t] / 2;
      // Blocks of 12 rows: each value of a twice per block, except in the
      // short last block, where (a, d) has singletons.
      d[t] = static_cast<int32_t>(t / 12);
    }
    relation_ = EncodedRelation::FromColumns(
        Schema::FromNames({"c", "k", "a", "b", "d"}),
        {CodeColumn::FromRanks(c, 1), CodeColumn::FromRanks(k, kRows),
         CodeColumn::FromRanks(a, 6), CodeColumn::FromRanks(b, 3),
         CodeColumn::FromRanks(d, 4)},
        std::vector<ValueDictionary>(5));
    for (int x = 0; x < relation_.NumAttributes(); ++x) {
      cache_.Put(1, AttributeSet::Single(x),
                 StrippedPartition::ForAttribute(relation_.codes(x)));
    }
  }

  PartitionCache::Derived Derive(AttributeSet left, AttributeSet right,
                                 AttributeSet determined) const {
    return cache_.Derive(relation_, left, right, determined, &scratch_);
  }

  static AttributeSet Set(std::initializer_list<int> attrs) {
    AttributeSet set;
    for (int x : attrs) set = set.With(x);
    return set;
  }

  StrippedPartition Direct(AttributeSet set) const {
    std::vector<const CodeColumn*> cols;
    for (int x = set.First(); x >= 0; x = set.Next(x)) {
      cols.push_back(&relation_.codes(x));
    }
    return StrippedPartition::FromCodeColumns(cols, kRows);
  }

  // The product fold of the single-attribute partitions of `set`.
  StrippedPartition ProductFold(AttributeSet set) const {
    StrippedPartition fold = StrippedPartition::Universe(kRows);
    for (int x = set.First(); x >= 0; x = set.Next(x)) {
      fold = fold.Product(StrippedPartition::ForAttribute(relation_.codes(x)));
    }
    return fold;
  }

  EncodedRelation relation_;
  PartitionCache cache_;
  mutable RefineScratch scratch_;
};

TEST_F(PartitionDeriveTest, DeterminedAttributeSharesTheParentPartition) {
  // {a} -> b: Π*_{ab} is Π*_{a}, shared rather than rebuilt.
  PartitionCache::Derived ab =
      Derive(Set({kA}), Set({kB}), Set({kB}));
  EXPECT_TRUE(ab.reused);
  EXPECT_EQ(ab.partition.get(), &cache_.Get(Set({kA})));
  EXPECT_EQ(*ab.partition, Direct(Set({kA, kB})));
  // {} -> c (constant column), so {d} -> c: Π*_{cd} is Π*_{d}.
  PartitionCache::Derived cd =
      Derive(Set({kC}), Set({kD}), Set({kC}));
  EXPECT_TRUE(cd.reused);
  EXPECT_EQ(cd.partition.get(), &cache_.Get(Set({kD})));
  EXPECT_EQ(*cd.partition, Direct(Set({kC, kD})));
  // One level up: {a} -> b lifts to {a, d} -> b, so Π*_{abd} is
  // Π*_{ad}.
  cache_.Put(2, Set({kA, kB}), ab.partition);
  cache_.Put(2, Set({kA, kD}),
             Derive(Set({kA}), Set({kD}), AttributeSet()).partition);
  PartitionCache::Derived abd =
      Derive(Set({kA, kB}), Set({kA, kD}), Set({kB}));
  EXPECT_TRUE(abd.reused);
  EXPECT_EQ(abd.partition.get(), &cache_.Get(Set({kA, kD})));
  EXPECT_EQ(*abd.partition, Direct(Set({kA, kB, kD})));
}

TEST_F(PartitionDeriveTest, SuperkeyParentIsShared) {
  for (bool key_left : {true, false}) {
    PartitionCache::Derived kd =
        key_left ? Derive(Set({kK}), Set({kD}), AttributeSet())
                 : Derive(Set({kD}), Set({kK}), AttributeSet());
    EXPECT_TRUE(kd.reused);
    EXPECT_EQ(kd.partition.get(), &cache_.Get(Set({kK})));
    EXPECT_TRUE(kd.partition->IsSuperkey());
    EXPECT_EQ(*kd.partition, Direct(Set({kK, kD})));
  }
}

TEST_F(PartitionDeriveTest, NothingKnownFallsBackToTheProduct) {
  PartitionCache::Derived ad =
      Derive(Set({kA}), Set({kD}), AttributeSet());
  EXPECT_FALSE(ad.reused);
  EXPECT_NE(ad.partition.get(), &cache_.Get(Set({kA})));
  EXPECT_NE(ad.partition.get(), &cache_.Get(Set({kD})));
  EXPECT_EQ(*ad.partition, Direct(Set({kA, kD})));
  EXPECT_EQ(*ad.partition,
            cache_.Get(Set({kA})).Product(cache_.Get(Set({kD}))));
}

TEST_F(PartitionDeriveTest, RefinesTheSmallestSubsetEvenIfNotAParent) {
  // X = {c, a, d} from the generating parents {c, a} and {c, d}. The
  // constant c splits nothing, so both parents hold as many elements as
  // Π*_{a} and Π*_{d}, while Π*_{a, d} is smaller. Rule 3 refines
  // Π*_{a, d} by c, so the result keeps Π*_{a, d}'s class order.
  for (AttributeSet pair : {Set({kC, kA}), Set({kC, kD}), Set({kA, kD})}) {
    cache_.Put(2, pair, Direct(pair));
  }
  const StrippedPartition& ad = cache_.Get(Set({kA, kD}));
  ASSERT_LT(ad.NumElements(), cache_.Get(Set({kC, kA})).NumElements());
  ASSERT_LT(ad.NumElements(), cache_.Get(Set({kC, kD})).NumElements());
  PartitionCache::Derived cad =
      Derive(Set({kC, kA}), Set({kC, kD}), AttributeSet());
  EXPECT_FALSE(cad.reused);
  EXPECT_EQ(*cad.partition, ProductFold(Set({kC, kA, kD})));
  EXPECT_EQ(*cad.partition, Direct(Set({kC, kA, kD})));
  EXPECT_EQ(cad.partition->ToString(), ad.ToString());
}

TEST_F(PartitionDeriveTest, TotalElementsCountsASharedPartitionOnce) {
  const int64_t before = cache_.TotalElements();
  cache_.Put(2, Set({kA, kB}),
             Derive(Set({kA}), Set({kB}), Set({kB})).partition);
  EXPECT_EQ(cache_.NumCached(), 6);
  EXPECT_EQ(cache_.TotalElements(), before);
  // Evicting level 1 leaves the shared partition alive under {a, b}.
  const int64_t a_elements = cache_.Get(Set({kA})).NumElements();
  cache_.EvictBelow(2);
  EXPECT_EQ(cache_.TotalElements(), a_elements);
  EXPECT_EQ(cache_.Get(Set({kA, kB})), Direct(Set({kA, kB})));
}

TEST(PartitionCacheTest, BorrowedPartitionIsServedInPlace) {
  const StrippedPartition owned =
      StrippedPartition::ForAttribute({0, 0, 1, 1}, 2);
  PartitionCache cache;
  cache.Put(1, AttributeSet::Single(0), BorrowPartition(owned));
  EXPECT_EQ(&cache.Get(AttributeSet::Single(0)), &owned);
  cache.EvictBelow(2);  // dropping a borrowed handle frees nothing
  EXPECT_EQ(owned.NumElements(), 4);
}

}  // namespace
}  // namespace fastod
