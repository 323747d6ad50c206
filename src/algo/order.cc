#include "algo/order.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "api/od_sink.h"
#include "od/mapping.h"
#include "validate/od_validator.h"

namespace fastod {

namespace {

struct OdKeyHash {
  size_t operator()(const ListOd& od) const { return ListOdHash()(od); }
};

using OdSet = std::unordered_set<ListOd, OdKeyHash>;

// Node of the list-containment lattice plus its liveness for subtree
// pruning.
struct ListNode {
  OrderSpec list;
  bool extend = true;
};

class Run {
 public:
  Run(const EncodedRelation& relation, const OrderOptions& options,
      const std::vector<StrippedPartition>* singletons)
      : relation_(relation),
        options_(options),
        validator_(&relation, singletons) {}

  OrderResult Execute() {
    WallTimer timer;
    const int m = relation_.NumAttributes();
    std::vector<ListNode> level;
    for (int a = 0; a < m; ++a) {
      level.push_back(ListNode{OrderSpec{a}, true});
    }
    int l = 1;
    while (!level.empty()) {
      if (options_.max_level > 0 && l > options_.max_level) break;
      result_.total_nodes += static_cast<int64_t>(level.size());
      for (ListNode& node : level) {
        if (StopRequested()) break;
        ProcessNode(&node);
      }
      if (Stopped()) break;
      result_.levels_processed = l;
      // Extend surviving nodes with every absent attribute (all
      // permutations one longer — the factorial frontier).
      std::vector<ListNode> next;
      for (const ListNode& node : level) {
        if (!node.extend) continue;
        AttributeSet used = OrderSpecSet(node.list);
        for (int a = 0; a < m; ++a) {
          if (used.Contains(a)) continue;
          OrderSpec child = node.list;
          child.push_back(a);
          next.push_back(ListNode{std::move(child), true});
        }
      }
      level = std::move(next);
      if (options_.control != nullptr) {
        options_.control->ReportProgress(static_cast<double>(l) / m);
      }
      ++l;
      if (StopRequested()) break;
    }
    // Early exits keep the last level's fraction; only a clean finish
    // reports 100%.
    if (options_.control != nullptr && !Stopped()) {
      options_.control->ReportProgress(1.0);
    }
    result_.seconds = timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  // Validates / prunes every split candidate of `node`; decides whether the
  // node's subtree is still worth extending.
  void ProcessNode(ListNode* node) {
    const size_t len = node->list.size();
    if (len < 2) return;  // singletons carry no candidate; always extended
    bool any_alive = false;
    for (size_t k = 1; k < len; ++k) {
      ListOd candidate;
      candidate.rhs.assign(node->list.begin(), node->list.begin() + k);
      candidate.lhs.assign(node->list.begin() + k, node->list.end());
      CandidateFate fate = Evaluate(candidate);
      // A candidate can still become valid in the subtree if its failure is
      // repairable: splits are repaired by extending the lhs (which is what
      // child nodes do); swaps are permanent. Valid candidates keep the
      // subtree alive as well (their extensions may reveal longer ODs).
      if (fate != CandidateFate::kSwapDead) any_alive = true;
    }
    if (options_.enable_pruning) node->extend = any_alive;
  }

  // Polled before every node and between levels, as one level can take
  // seconds: latches the control's cancel as cancelled and its passed
  // deadline as timed_out.
  bool StopRequested() {
    if (options_.control == nullptr) return false;
    if (options_.control->CancelRequested()) {
      result_.cancelled = true;
      return true;
    }
    if (options_.control->DeadlineExceeded()) {
      result_.timed_out = true;
      return true;
    }
    return false;
  }

  bool Stopped() const { return result_.timed_out || result_.cancelled; }

  enum class CandidateFate { kValid, kImplied, kSplitDead, kSwapDead };

  CandidateFate Evaluate(const ListOd& od) {
    if (options_.enable_pruning) {
      if (IsSwapPruned(od)) {
        ++result_.candidates_pruned;
        return CandidateFate::kSwapDead;
      }
      if (IsSplitPruned(od)) {
        ++result_.candidates_pruned;
        return CandidateFate::kSplitDead;
      }
      if (IsImpliedByValid(od)) {
        ++result_.candidates_pruned;
        return CandidateFate::kImplied;
      }
    }
    ++result_.candidates_checked;
    // Theorem 1 decomposition: X ↦ Y iff X ↦ XY (no split) and X ~ Y (no
    // swap). Both sides run on cached context partitions.
    bool split = HasSplit(od);
    bool swap = !validator_.AreOrderCompatible(od.lhs, od.rhs);
    if (swap) {
      swapped_.insert(od);
      return CandidateFate::kSwapDead;
    }
    if (split) {
      split_failed_.insert(od);
      return CandidateFate::kSplitDead;
    }
    if (!IsImpliedByValid(od)) {
      result_.ods.push_back(od);
      if (options_.sink != nullptr) options_.sink->OnListOd(od);
    }
    valid_.insert(od);
    return CandidateFate::kValid;
  }

  bool HasSplit(const ListOd& od) {
    AttributeSet context = OrderSpecSet(od.lhs);
    for (int y : od.rhs) {
      if (!validator_.IsConstant(context, y)) return true;
    }
    return false;
  }

  // Swap pruning: a recorded swap for any (lhs-prefix, rhs-prefix) pair
  // makes the candidate permanently invalid.
  bool IsSwapPruned(const ListOd& od) {
    ListOd probe;
    for (size_t i = 1; i <= od.lhs.size(); ++i) {
      probe.lhs.assign(od.lhs.begin(), od.lhs.begin() + i);
      for (size_t j = 1; j <= od.rhs.size(); ++j) {
        probe.rhs.assign(od.rhs.begin(), od.rhs.begin() + j);
        if (probe.lhs.size() == od.lhs.size() &&
            probe.rhs.size() == od.rhs.size()) {
          continue;  // the candidate itself, not a proper prefix pair
        }
        if (swapped_.count(probe) > 0) return true;
        // Swaps are symmetric (they falsify X ~ Y): check the mirror too.
        std::swap(probe.lhs, probe.rhs);
        bool hit = swapped_.count(probe) > 0;
        std::swap(probe.lhs, probe.rhs);
        if (hit) return true;
      }
    }
    return false;
  }

  // Split pruning: a split for X ↦ Y0 with the same lhs and Y0 a prefix of
  // the candidate rhs persists (a non-FD rhs stays a non-FD when extended).
  bool IsSplitPruned(const ListOd& od) {
    ListOd probe;
    probe.lhs = od.lhs;
    for (size_t j = 1; j < od.rhs.size(); ++j) {
      probe.rhs.assign(od.rhs.begin(), od.rhs.begin() + j);
      if (split_failed_.count(probe) > 0) return true;
    }
    return false;
  }

  // ORDER's list-based minimality: X0 ↦ Y0 implies X ↦ Y whenever X0 is a
  // prefix of X and Y is a prefix of Y0 (appending to the lhs and chopping
  // the rhs both preserve validity).
  bool IsImpliedByValid(const ListOd& od) {
    for (const ListOd& known : result_.ods) {
      if (known == od) continue;
      if (IsPrefixOf(known.lhs, od.lhs) && IsPrefixOf(od.rhs, known.rhs)) {
        return true;
      }
    }
    return false;
  }

  const EncodedRelation& relation_;
  const OrderOptions& options_;
  OdValidator validator_;
  OdSet swapped_;
  OdSet split_failed_;
  OdSet valid_;
  OrderResult result_;
};

}  // namespace

MappedCounts MapToCanonicalCounts(const std::vector<ListOd>& ods) {
  std::unordered_set<ConstancyOd, ConstancyOdHash> constancy;
  std::unordered_set<CompatibilityOd, CompatibilityOdHash> compatibility;
  for (const ListOd& od : ods) {
    for (const CanonicalOd& piece : MapListOdToCanonical(od)) {
      if (std::holds_alternative<ConstancyOd>(piece)) {
        const ConstancyOd& c = std::get<ConstancyOd>(piece);
        if (!c.IsTrivial()) constancy.insert(c);
      } else {
        const CompatibilityOd& c = std::get<CompatibilityOd>(piece);
        if (!c.IsTrivial()) compatibility.insert(c);
      }
    }
  }
  MappedCounts counts;
  counts.num_constancy = static_cast<int64_t>(constancy.size());
  counts.num_compatibility = static_cast<int64_t>(compatibility.size());
  return counts;
}

OrderBaseline::OrderBaseline(OrderOptions options) : options_(options) {}

OrderResult OrderBaseline::Discover(
    const EncodedRelation& relation,
    const std::vector<StrippedPartition>* singletons) const {
  Run run(relation, options_, singletons);
  return run.Execute();
}

}  // namespace fastod
