#include "validate/od_validator.h"

#include <algorithm>
#include <numeric>

namespace fastod {

namespace {

// Lexicographic three-way comparison of tuples s and t on `spec`.
int CompareLex(const EncodedRelation& rel, const OrderSpec& spec, int32_t s,
               int32_t t) {
  for (int a : spec) {
    int32_t rs = rel.rank(s, a);
    int32_t rt = rel.rank(t, a);
    if (rs != rt) return rs < rt ? -1 : 1;
  }
  return 0;
}

// Directional lexicographic comparison (bidirectional extension):
// descending attributes reverse the per-attribute comparison.
int CompareLexDirected(const EncodedRelation& rel, const DirectedSpec& spec,
                       int32_t s, int32_t t) {
  for (const DirectedAttribute& da : spec) {
    int32_t rs = rel.rank(s, da.attr);
    int32_t rt = rel.rank(t, da.attr);
    if (rs != rt) {
      bool less = rs < rt;
      if (da.direction == SortDirection::kDesc) less = !less;
      return less ? -1 : 1;
    }
  }
  return 0;
}

}  // namespace

OdValidator::OdValidator(const EncodedRelation* relation,
                         const std::vector<StrippedPartition>* singletons)
    : relation_(relation),
      sorted_(*relation),
      swap_checker_(relation, &sorted_) {
  FASTOD_CHECK(relation_ != nullptr);
  if (singletons != nullptr) {
    // Prebuilt level-1 partitions (a bound LoadedDataset): seed the
    // context cache so every singleton context is a lookup, not a build.
    FASTOD_CHECK(static_cast<int>(singletons->size()) ==
                 relation_->NumAttributes());
    for (int a = 0; a < relation_->NumAttributes(); ++a) {
      context_cache_.emplace(AttributeSet::Single(a), (*singletons)[a]);
    }
  }
}

const StrippedPartition& OdValidator::ContextPartition(AttributeSet context) {
  auto it = context_cache_.find(context);
  if (it != context_cache_.end()) return it->second;
  StrippedPartition partition;
  if (context.IsEmpty()) {
    partition = StrippedPartition::Universe(relation_->NumRows());
  } else {
    // Start from the largest cached proper subset — callers walking a
    // lattice (minimality probes, the incremental engine's escalation
    // BFS) ask for a context right after its parent, so this is usually
    // one refinement instead of |X| - 1 — then refine by the code column
    // of each missing attribute.
    AttributeSet covered;
    const StrippedPartition* seed = nullptr;
    for (const auto& [cached_set, cached_partition] : context_cache_) {
      if (cached_set.IsEmpty() || !context.ContainsAll(cached_set)) continue;
      if (seed == nullptr || cached_set.Count() > covered.Count()) {
        covered = cached_set;
        seed = &cached_partition;
      }
    }
    if (seed != nullptr) {
      partition = *seed;
    } else {
      int first = context.First();
      partition = StrippedPartition::ForAttribute(relation_->codes(first));
      covered = AttributeSet::Single(first);
    }
    RefineScratch scratch;
    for (int a = context.First(); a >= 0; a = context.Next(a)) {
      if (covered.Contains(a)) continue;
      partition = partition.Refine(relation_->codes(a), &scratch);
    }
  }
  auto [pos, inserted] = context_cache_.emplace(context, std::move(partition));
  return pos->second;
}

bool OdValidator::IsConstant(AttributeSet context, int attribute) {
  const StrippedPartition& partition = ContextPartition(context);
  const CodeColumn& ranks = relation_->codes(attribute);
  for (int32_t c = 0; c < partition.NumClasses(); ++c) {
    auto cls = partition.Class(c);
    int32_t first_rank = ranks[cls[0]];
    for (int32_t t : cls) {
      if (ranks[t] != first_rank) return false;
    }
  }
  return true;
}

bool OdValidator::IsOrderCompatible(AttributeSet context, int a, int b) {
  if (a == b) return true;  // Identity axiom
  const StrippedPartition& partition = ContextPartition(context);
  return swap_checker_.IsOrderCompatible(partition, a, b);
}

bool OdValidator::Holds(const CanonicalOd& od) {
  if (std::holds_alternative<ConstancyOd>(od)) {
    const ConstancyOd& c = std::get<ConstancyOd>(od);
    return IsConstant(c.context, c.attribute);
  }
  const CompatibilityOd& c = std::get<CompatibilityOd>(od);
  return IsOrderCompatible(c.context, c.a, c.b);
}

bool OdValidator::Holds(const ListOd& od) {
  // X ↦ Y iff no pair s ≺_X t with t ≺_Y s. Sort by X; sweep X-groups in
  // ascending order, tracking the Y-maximum tuple over strictly smaller
  // X-groups; a violation is a tuple Y-below that running maximum.
  const int64_t n = relation_->NumRows();
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t s, int32_t t) {
    int cmp = CompareLex(*relation_, od.lhs, s, t);
    if (cmp != 0) return cmp < 0;
    return s < t;
  });
  int32_t run_max = -1;  // tuple achieving the Y-maximum so far, -1 = none
  int64_t i = 0;
  while (i < n) {
    // The current X-group is [i, j).
    int64_t j = i + 1;
    while (j < n &&
           CompareLex(*relation_, od.lhs, order[i], order[j]) == 0) {
      ++j;
    }
    // Tuples equal on X must be equal on Y (otherwise a split: s ⪯_X t and
    // t ⪯_X s would demand Y-equality).
    for (int64_t k = i + 1; k < j; ++k) {
      if (CompareLex(*relation_, od.rhs, order[i], order[k]) != 0) {
        return false;
      }
    }
    // Cross-group: strictly X-smaller tuples must not be Y-greater (swap).
    int32_t representative = order[i];
    if (run_max >= 0 &&
        CompareLex(*relation_, od.rhs, representative, run_max) < 0) {
      return false;
    }
    run_max = representative;  // groups are Y-constant, any member works
    i = j;
  }
  return true;
}

bool OdValidator::IsBidiOrderCompatible(AttributeSet context, int a, int b) {
  if (a == b) {
    // A ~ A desc only holds when A is constant within every class.
    return IsConstant(context, a);
  }
  const StrippedPartition& partition = ContextPartition(context);
  return swap_checker_.IsOrderCompatibleDirected(partition, a, b,
                                                 /*opposite=*/true);
}

bool OdValidator::Holds(const BidirectionalListOd& od) {
  // Same sweep as the ascending variant, under the directional
  // lexicographic order.
  const int64_t n = relation_->NumRows();
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int32_t s, int32_t t) {
    int cmp = CompareLexDirected(*relation_, od.lhs, s, t);
    if (cmp != 0) return cmp < 0;
    return s < t;
  });
  int32_t run_max = -1;
  int64_t i = 0;
  while (i < n) {
    int64_t j = i + 1;
    while (j < n && CompareLexDirected(*relation_, od.lhs, order[i],
                                       order[j]) == 0) {
      ++j;
    }
    for (int64_t k = i + 1; k < j; ++k) {
      if (CompareLexDirected(*relation_, od.rhs, order[i], order[k]) != 0) {
        return false;  // split
      }
    }
    int32_t representative = order[i];
    if (run_max >= 0 &&
        CompareLexDirected(*relation_, od.rhs, representative, run_max) <
            0) {
      return false;  // swap
    }
    run_max = representative;
    i = j;
  }
  return true;
}

bool OdValidator::AreOrderCompatible(const OrderSpec& lhs,
                                     const OrderSpec& rhs) {
  // X ~ Y is defined as XY ↔ YX.
  OrderSpec xy = lhs;
  xy.insert(xy.end(), rhs.begin(), rhs.end());
  OrderSpec yx = rhs;
  yx.insert(yx.end(), lhs.begin(), lhs.end());
  return AreOrderEquivalent(xy, yx);
}

bool OdValidator::AreOrderEquivalent(const OrderSpec& lhs,
                                     const OrderSpec& rhs) {
  return Holds(ListOd{lhs, rhs}) && Holds(ListOd{rhs, lhs});
}

}  // namespace fastod
