// Conditional ODs — the paper's third future-work item (Section 7):
// "conditional ODs that hold over portions of a relation. Since
// conditional ODs allow data bindings, a large number of individual
// dependencies may hold on a table."
//
// A conditional OD (C ∈ {v1, v2, ...}) ⇒ od states that the canonical OD
// `od` holds on the sub-relation σ_{C ∈ {v...}}(r). This module provides
//  * Refine(): given an OD (typically one that fails globally) and a
//    condition attribute C, compute the exact set of C-bindings under
//    which it holds, with its support (fraction of tuples covered); and
//  * DiscoverConditional(): a pragmatic driver that scans globally-failing
//    small-context candidates against all viable condition attributes and
//    returns the conditional ODs above a support threshold — the
//    data-cleaning-oriented reading of the future-work sketch.
//
// Implementation note: od holds on σ_{C=v}(r) iff it holds within every
// equivalence class of Π_{context ∪ {C}} whose C-value is v, so one
// partition product answers all bindings of one condition attribute at
// once.
#ifndef FASTOD_ALGO_CONDITIONAL_H_
#define FASTOD_ALGO_CONDITIONAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "data/encode.h"
#include "od/canonical_od.h"
#include "partition/stripped_partition.h"

namespace fastod {

class Schema;

/// (C ∈ bindings) ⇒ od, with bindings given as ranks of C (dense,
/// order-preserving; translate back through the relation for display).
struct ConditionalOd {
  int condition_attribute = -1;
  std::vector<int32_t> binding_ranks;  // ascending
  CanonicalOd od;
  /// Fraction of tuples whose C-value is in the bindings.
  double support = 0.0;

  std::string ToString(const Schema& schema) const;
};

struct ConditionalOdOptions {
  /// Minimum fraction of tuples the bindings must cover.
  double min_support = 0.25;
  /// Condition attributes with more distinct values than this are skipped
  /// by the discovery driver (they'd overfit row-by-row).
  int32_t max_condition_cardinality = 64;
  /// Upper bound on results from DiscoverConditional.
  int64_t max_results = 100;
  /// Cooperative cancellation + progress, polled by DiscoverConditional
  /// before each candidate OD. Must outlive the call.
  ExecutionControl* control = nullptr;
};

class ConditionalOdFinder {
 public:
  /// The relation must outlive the finder. `singletons`, when given,
  /// seed the validator's context cache with prebuilt level-1 partitions
  /// (see Fastod::Discover); borrowed, must outlive the finder.
  explicit ConditionalOdFinder(
      const EncodedRelation* relation,
      const std::vector<StrippedPartition>* singletons = nullptr);

  /// The exact binding set of `condition_attribute` under which `od`
  /// holds, or nullopt if support falls below options.min_support or the
  /// condition attribute appears in the OD (no refinement possible).
  std::optional<ConditionalOd> Refine(const CanonicalOd& od,
                                      int condition_attribute,
                                      const ConditionalOdOptions& options =
                                          ConditionalOdOptions());

  /// Scans the natural small candidates — {}: A ~ B pairs and {A}: [] -> B
  /// FDs that fail globally — against every viable condition attribute.
  /// Results are sorted by support (descending), deduplicated per
  /// (od, condition) with maximal bindings by construction. When
  /// options.control stops the scan, the results found so far are
  /// returned and cancelled() is true.
  std::vector<ConditionalOd> DiscoverConditional(
      const ConditionalOdOptions& options = ConditionalOdOptions());

  /// True iff the last DiscoverConditional stopped early.
  bool cancelled() const { return cancelled_; }

 private:
  const EncodedRelation* relation_;
  const std::vector<StrippedPartition>* singletons_;
  bool cancelled_ = false;
};

}  // namespace fastod

#endif  // FASTOD_ALGO_CONDITIONAL_H_
