// ORDER (Langer & Naumann, VLDB Journal 2016): the prior state-of-the-art
// list-based OD discovery algorithm, reimplemented as the paper's Exp-3
// comparator.
//
// ORDER traverses the lattice of attribute *lists* (factorial in |R|).
// Visiting node [A,B,C] generates the split candidates [B,C] ↦ [A] and
// [C] ↦ [A,B] (suffix orders prefix). Candidates are validated through the
// split/swap decomposition of Theorem 1 and pruned aggressively:
//   * swap pruning  — a swap for X ↦ Y kills every prefix-extension
//     X' ↦ Y' (appending attributes can never repair a swap);
//   * split pruning — a split for X ↦ Y kills X ↦ Y' for rhs extensions Y'
//     (supersets of a non-FD rhs stay non-FDs);
//   * subtree pruning — a node none of whose candidates can still become
//     valid is not extended.
//
// Exactly as Section 4.5 of the FASTOD paper proves, this pruning makes
// ORDER *incomplete*: it cannot represent constants ([] ↦ Y), ODs with
// repeated attributes across the sides (X ↦ XY — i.e. embedded FDs), or
// same-prefix ODs (XY ↦ XZ); tests/order_test.cc demonstrates each missed
// class against FASTOD's complete output.
#ifndef FASTOD_ALGO_ORDER_H_
#define FASTOD_ALGO_ORDER_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/timer.h"
#include "data/encode.h"
#include "od/list_od.h"
#include "partition/stripped_partition.h"

namespace fastod {

class OdSink;

struct OrderOptions {
  /// Stop after lattice level `max_level` (list length; 0 = no limit).
  int max_level = 0;
  /// Disable the swap/split pruning rules. The paper reports that with
  /// pruning disabled ORDER becomes complete in spirit but "did not
  /// terminate within five hours in any of the tested datasets".
  bool enable_pruning = true;
  /// Streaming emission (api/od_sink.h): valid list ODs are delivered
  /// through OnListOd() as they are found. Unlike FASTOD/TANE this tees:
  /// the result vector is still populated, because ORDER consults it for
  /// its list-minimality (implication) checks.
  OdSink* sink = nullptr;
  /// Cancellation, the wall-clock deadline and progress, polled before
  /// every lattice node: a passed deadline flags the partial result
  /// timed_out (the paper aborts ORDER runs at 5 hours, "* 5h"), a cancel
  /// flags it cancelled.
  ExecutionControl* control = nullptr;
};

struct OrderResult {
  /// Valid, list-minimal ODs in ORDER's own canonical form.
  std::vector<ListOd> ods;
  bool timed_out = false;
  bool cancelled = false;
  int levels_processed = 0;
  int64_t total_nodes = 0;
  int64_t candidates_checked = 0;
  int64_t candidates_pruned = 0;
  double seconds = 0.0;
};

/// Counts of the set-based canonical image of a list-OD result set
/// (Theorem 5 mapping, trivial ODs dropped, duplicates merged) — the
/// "maps to 58 set-based ODs (31 FDs and 27 OCDs)" numbers of Exp-3.
struct MappedCounts {
  int64_t num_constancy = 0;
  int64_t num_compatibility = 0;
  int64_t Total() const { return num_constancy + num_compatibility; }
};

MappedCounts MapToCanonicalCounts(const std::vector<ListOd>& ods);

class OrderBaseline {
 public:
  explicit OrderBaseline(OrderOptions options = OrderOptions());

  /// `singletons`, when given, seed the validator's context cache with
  /// prebuilt level-1 partitions (see Fastod::Discover).
  OrderResult Discover(
      const EncodedRelation& relation,
      const std::vector<StrippedPartition>* singletons = nullptr) const;

 private:
  OrderOptions options_;
};

}  // namespace fastod

#endif  // FASTOD_ALGO_ORDER_H_
