// Exhaustive canonical-OD discovery — the correctness oracle.
//
// Enumerates every context X ⊆ R and every canonical OD shape, decides
// validity with the O(n^2) definitional checks, and applies the paper's
// minimality definitions (Section 4.1) verbatim:
//   * X: [] -> A is minimal iff it is non-trivial, valid, and no proper
//     subset context Y ⊂ X has Y: [] -> A valid (Augmentation-I);
//   * X: A ~ B is minimal iff it is non-trivial, valid, no Y ⊂ X has
//     Y: A ~ B valid (Augmentation-II), and neither X: [] -> A nor
//     X: [] -> B is valid (Propagate).
//
// Exponential-times-quadratic; use only on tiny relations. The property
// tests compare FASTOD's output against this oracle (completeness +
// minimality, Theorem 8) and FASTOD-NoPruning's counts against the
// all-valid counts.
#ifndef FASTOD_ALGO_BRUTE_FORCE_DISCOVERY_H_
#define FASTOD_ALGO_BRUTE_FORCE_DISCOVERY_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "data/encode.h"
#include "od/bidirectional.h"
#include "od/canonical_od.h"
#include "partition/stripped_partition.h"

namespace fastod {

struct BruteForceDiscoveryResult {
  std::vector<ConstancyOd> constancy_ods;
  std::vector<CompatibilityOd> compatibility_ods;
  /// Only with discover_bidirectional: opposite-polarity OCDs, reported at
  /// contexts where ascending fails, descending holds, no proper subset
  /// context holds in either polarity, and neither endpoint is constant.
  std::vector<BidiCompatibilityOd> bidirectional_ods;
  /// Counts of *all valid non-trivial* (not only minimal) canonical ODs,
  /// for cross-checking the no-pruning ablation.
  int64_t all_valid_constancy = 0;
  int64_t all_valid_compatibility = 0;
  /// The control asked to stop before every context was checked. The
  /// minimality phase needs the whole validity table, so a cancelled run
  /// reports no ODs.
  bool cancelled = false;
};

/// Requires relation.NumAttributes() <= 16 (2^16 contexts already stretch
/// an oracle's welcome). With max_error > 0, validity means "g3 removal
/// error <= max_error" (the approximate-discovery semantics), so the
/// result is the oracle for Fastod with FastodOptions::max_error set.
/// With discover_bidirectional, pair minimality uses either-polarity
/// subset validity and polarity resolution prefers ascending — the oracle
/// for FastodOptions::discover_bidirectional. (Note: enabling the flag can
/// *shrink* the ascending compatibility set: a pair resolved descending at
/// a small context is never re-reported ascending at a larger one.)
/// `singletons`, when given, are prebuilt level-1 partitions used for
/// single-attribute contexts in approximate mode (see Fastod::Discover).
/// `control`, when given, is polled once per context and receives the
/// fraction of contexts checked as progress.
BruteForceDiscoveryResult BruteForceDiscoverOds(
    const EncodedRelation& relation, double max_error = 0.0,
    bool discover_bidirectional = false,
    const std::vector<StrippedPartition>* singletons = nullptr,
    ExecutionControl* control = nullptr);

}  // namespace fastod

#endif  // FASTOD_ALGO_BRUTE_FORCE_DISCOVERY_H_
