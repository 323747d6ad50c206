#include "algo/brute_force_discovery.h"

#include "algo/approximate.h"
#include "common/macros.h"
#include "partition/stripped_partition.h"
#include "validate/brute_force.h"

namespace fastod {

namespace {

// Index into flat (context-mask × attribute) validity tables.
size_t CellIndex(uint64_t mask, int a, int m) {
  return static_cast<size_t>(mask) * m + a;
}
size_t PairIndex(uint64_t mask, int a, int b, int m) {
  return (static_cast<size_t>(mask) * m + a) * m + b;
}

}  // namespace

BruteForceDiscoveryResult BruteForceDiscoverOds(
    const EncodedRelation& relation, double max_error,
    bool discover_bidirectional,
    const std::vector<StrippedPartition>* singletons,
    ExecutionControl* control) {
  const int m = relation.NumAttributes();
  FASTOD_CHECK(m <= 16);
  // The bidirectional oracle is implemented for exact validity only.
  FASTOD_CHECK(!(discover_bidirectional && max_error > 0.0));
  const uint64_t num_contexts = uint64_t{1} << m;
  // Polled before each context of each validity pass.
  const double total_contexts = static_cast<double>(num_contexts) *
                                (discover_bidirectional ? 2.0 : 1.0);
  auto stop = [&](uint64_t contexts_checked) {
    if (control == nullptr) return false;
    control->ReportProgress(static_cast<double>(contexts_checked) /
                            total_contexts);
    return control->StopRequested();
  };
  BruteForceDiscoveryResult result;

  // Phase 1: validity of every candidate, straight from the definitions
  // (exact mode) or from the g3 removal errors (approximate mode).
  std::vector<uint8_t> const_valid(num_contexts * m, 0);
  std::vector<uint8_t> compat_valid(num_contexts * m * m, 0);
  for (uint64_t mask = 0; mask < num_contexts; ++mask) {
    if (stop(mask)) {
      result.cancelled = true;
      return result;
    }
    AttributeSet context(mask);
    StrippedPartition partition;
    if (max_error > 0.0) {
      if (context.IsEmpty()) {
        partition = StrippedPartition::Universe(relation.NumRows());
      } else if (context.Count() == 1 && singletons != nullptr) {
        partition = (*singletons)[context.First()];
      } else {
        std::vector<const CodeColumn*> columns;
        for (int a = context.First(); a >= 0; a = context.Next(a)) {
          columns.push_back(&relation.codes(a));
        }
        partition =
            StrippedPartition::FromCodeColumns(columns, relation.NumRows());
      }
    }
    for (int a = 0; a < m; ++a) {
      bool valid = max_error > 0.0
                       ? ConstancyError(relation, partition, a) <= max_error
                       : BruteIsConstant(relation, context, a);
      const_valid[CellIndex(mask, a, m)] = valid ? 1 : 0;
    }
    for (int a = 0; a < m; ++a) {
      for (int b = a + 1; b < m; ++b) {
        bool valid =
            max_error > 0.0
                ? CompatibilityError(relation, partition, a, b) <= max_error
                : BruteIsOrderCompatible(relation, context, a, b);
        compat_valid[PairIndex(mask, a, b, m)] = valid ? 1 : 0;
      }
    }
  }
  // Either-polarity validity table for bidirectional mode: descending
  // compatibility checked only where ascending fails (ascending wins ties).
  std::vector<uint8_t> desc_valid;
  if (discover_bidirectional) {
    desc_valid.assign(num_contexts * m * m, 0);
    for (uint64_t mask = 0; mask < num_contexts; ++mask) {
      if (stop(num_contexts + mask)) {
        result.cancelled = true;
        return result;
      }
      AttributeSet context(mask);
      for (int a = 0; a < m; ++a) {
        for (int b = a + 1; b < m; ++b) {
          desc_valid[PairIndex(mask, a, b, m)] =
              BruteIsBidiOrderCompatible(relation, context, a, b) ? 1 : 0;
        }
      }
    }
  }

  // Phase 2: minimality per Section 4.1.
  for (uint64_t mask = 0; mask < num_contexts; ++mask) {
    AttributeSet context(mask);
    for (int a = 0; a < m; ++a) {
      if (context.Contains(a)) continue;  // trivial (Reflexivity)
      if (!const_valid[CellIndex(mask, a, m)]) continue;
      ++result.all_valid_constancy;
      bool minimal = true;
      // Proper subsets of the context via submask enumeration (the empty
      // context has none).
      if (mask != 0) {
        for (uint64_t sub = (mask - 1) & mask; minimal;
             sub = (sub - 1) & mask) {
          if (const_valid[CellIndex(sub, a, m)]) minimal = false;
          if (sub == 0) break;
        }
      }
      if (minimal) result.constancy_ods.push_back(ConstancyOd{context, a});
    }
    for (int a = 0; a < m; ++a) {
      for (int b = a + 1; b < m; ++b) {
        if (context.Contains(a) || context.Contains(b)) continue;  // trivial
        const bool asc = compat_valid[PairIndex(mask, a, b, m)] != 0;
        const bool desc = discover_bidirectional &&
                          desc_valid[PairIndex(mask, a, b, m)] != 0;
        if (asc) ++result.all_valid_compatibility;
        if (!asc && !desc) continue;
        // Propagate: constancy of either side in the same context makes
        // the compatibility OD non-minimal.
        if (const_valid[CellIndex(mask, a, m)] ||
            const_valid[CellIndex(mask, b, m)]) {
          continue;
        }
        // Minimal iff no proper subset context resolves the pair (in any
        // enabled polarity — a pair resolved below never reappears).
        bool minimal = true;
        if (mask != 0) {
          for (uint64_t sub = (mask - 1) & mask; minimal;
               sub = (sub - 1) & mask) {
            if (compat_valid[PairIndex(sub, a, b, m)] ||
                (discover_bidirectional &&
                 desc_valid[PairIndex(sub, a, b, m)])) {
              minimal = false;
            }
            if (sub == 0) break;
          }
        }
        if (minimal) {
          if (asc) {
            result.compatibility_ods.push_back(
                CompatibilityOd(context, a, b));
          } else {
            result.bidirectional_ods.push_back(
                BidiCompatibilityOd(context, a, b));
          }
        }
      }
    }
  }
  if (control != nullptr) control->ReportProgress(1.0);
  return result;
}

}  // namespace fastod
