#include "algo/fastod.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "algo/approximate.h"
#include "algo/lattice_walk.h"
#include "api/od_sink.h"
#include "common/macros.h"
#include "common/thread_pool.h"

namespace fastod {

namespace {

AttributePair MakePair(int a, int b) {
  FASTOD_DCHECK(a != b);
  if (a > b) std::swap(a, b);
  return static_cast<AttributePair>(a * 64 + b);
}
int PairFirst(AttributePair p) { return p / 64; }
int PairSecond(AttributePair p) { return p % 64; }

bool SortedContains(const std::vector<AttributePair>& v, AttributePair p) {
  return std::binary_search(v.begin(), v.end(), p);
}

// Per-node validation results, merged into the global result in canonical
// node order so that output is deterministic under any thread count.
struct NodeOutcome {
  int64_t num_constancy = 0;
  int64_t num_compatibility = 0;
  int64_t num_bidirectional = 0;
  std::vector<ConstancyOd> constancy;             // only if emit_ods
  std::vector<CompatibilityOd> compatibility;     // only if emit_ods
  std::vector<BidiCompatibilityOd> bidirectional; // only if emit_ods
  int64_t constancy_checks = 0;
  int64_t swap_checks = 0;
  int64_t swap_sample_refutes = 0;
  int64_t swap_full_scans = 0;
  int64_t key_prune_hits = 0;
  int64_t partitions_reused = 0;
};

// FASTOD's policy on the shared lattice walk (Algorithm 1): candidate
// sets Cc+/Cs+ and validation per node, the outcome merge, and Lemma 11
// pruning. It holds the whole per-run state of one discovery, so
// Discover() stays const and re-entrant on the Fastod object.
class Run final : public LatticePolicy {
 public:
  Run(const EncodedRelation& relation, const FastodOptions& options,
      const std::vector<StrippedPartition>* singletons)
      : relation_(relation),
        options_(options),
        sorted_(relation),
        checkers_(std::max(1, options.num_threads),
                  SwapChecker(&relation, &sorted_, options.swap_method)),
        walk_(relation, singletons,
              LatticeWalkLimits{options.num_threads, options.max_level,
                                options.control},
              "fastod-od", this) {}

  FastodResult Execute() {
    walk_.Run().CopyTo(&result_);
    return std::move(result_);
  }

  // Section 4.6 derives Π*_X from the previous level alone, but a swap
  // check at X reads the context Π*_{X\{A,B}}, two levels down: FASTOD
  // keeps one level more than TANE.
  int CachedLevelsBack() const override { return 2; }

  void StartLevel(int l, size_t num_nodes) override {
    stats_ = FastodLevelStats();
    stats_.level = l;
    stats_.nodes = static_cast<int64_t>(num_nodes);
    outcomes_.assign(num_nodes, NodeOutcome());
  }

  // Algorithm 3: candidate-set maintenance plus validation of one node.
  void ProcessNode(int l, size_t index, LatticeNode* node) override {
    SwapChecker* checker = &checkers_[ThreadPool::CurrentParty()];
    NodeOutcome* out = &outcomes_[index];
    const int64_t refutes_before = checker->num_sample_refutes();
    const int64_t scans_before = checker->num_full_scans();
    if (options_.minimality_pruning) {
      ComputeCs(l, node);
      ValidateNodeMinimal(l, node, checker, out);
    } else {
      ValidateNodeExhaustive(l, node, checker, out);
    }
    out->partitions_reused += node->partition_reused ? 1 : 0;
    out->swap_sample_refutes += checker->num_sample_refutes() - refutes_before;
    out->swap_full_scans += checker->num_full_scans() - scans_before;
  }

  // In node order: deterministic output for any thread count. A sink
  // streams here; emit_ods independently accumulates the vectors. The
  // buffers are freed before the join and derive batch run.
  void MergeLevel() override {
    for (NodeOutcome& o : outcomes_) MergeOutcome(&o);
    outcomes_.clear();
  }

  // Algorithm 4: delete nodes whose candidate sets are both empty.
  bool KeepNode(int l, const LatticeNode& node,
                const LatticeLevel&) override {
    if (!options_.minimality_pruning || !options_.level_pruning || l < 2) {
      return true;
    }
    if (!node.cc.IsEmpty() || !node.cs.empty()) return true;
    ++stats_.nodes_pruned;
    return false;
  }

  void FinishLevel(double seconds, double occupancy) override {
    stats_.seconds = seconds;
    stats_.occupancy = occupancy;
    if (options_.collect_level_stats) result_.level_stats.push_back(stats_);
  }

 private:
  // ===== Validation core ================================================

  // Cs+(X) from the (l-1)-subsets (Alg. 3 lines 4 and 6); the walk has
  // already set Cc+(X).
  void ComputeCs(int l, LatticeNode* node) {
    if (l == 2) {
      // Cs+({A,B}) is initialized to the single pair {A,B} (Alg. 3 line 4).
      int a = node->set.First();
      int b = node->set.Next(a);
      node->cs = {MakePair(a, b)};
      return;
    }
    if (l < 2) return;
    // Cs+(X) = { {A,B} ∈ ∪_{C∈X} Cs+(X\C) |
    //            ∀D ∈ X\{A,B}: {A,B} ∈ Cs+(X\D) }   (Alg. 3 line 6).
    std::vector<AttributePair> candidates;
    for (int c = node->set.First(); c >= 0; c = node->set.Next(c)) {
      const LatticeNode* parent = walk_.previous().Find(node->set.Without(c));
      FASTOD_DCHECK(parent != nullptr);
      candidates.insert(candidates.end(), parent->cs.begin(),
                        parent->cs.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<AttributePair> kept;
    for (AttributePair p : candidates) {
      const int a = PairFirst(p);
      const int b = PairSecond(p);
      bool in_all = true;
      for (int d = node->set.First(); d >= 0 && in_all;
           d = node->set.Next(d)) {
        if (d == a || d == b) continue;
        const LatticeNode* parent = walk_.previous().Find(node->set.Without(d));
        FASTOD_DCHECK(parent != nullptr);
        if (!SortedContains(parent->cs, p)) in_all = false;
      }
      if (in_all) kept.push_back(p);
    }
    node->cs = std::move(kept);
  }

  void ValidateNodeMinimal(int l, LatticeNode* node, SwapChecker* checker,
                           NodeOutcome* out) {
    const StrippedPartition& node_partition = walk_.cache().Get(node->set);
    // --- Constancy side: X\A: [] -> A for A ∈ X ∩ Cc+(X) (Lemma 7). ---
    AttributeSet fd_candidates = node->set.Intersect(node->cc);
    for (int a = fd_candidates.First(); a >= 0; a = fd_candidates.Next(a)) {
      const AttributeSet context = node->set.Without(a);
      const StrippedPartition& context_partition = walk_.cache().Get(context);
      bool valid;
      if (options_.key_pruning && context_partition.IsSuperkey()) {
        valid = true;  // Lemma 12: a superkey context forces constancy.
        ++out->key_prune_hits;
        node->determined = node->determined.With(a);  // e(X\A) = e(X) = 0
      } else {
        ++out->constancy_checks;
        valid = ConstancyHolds(context_partition, node_partition, a, node);
      }
      if (valid) {
        Record(ConstancyOd{context, a}, &out->num_constancy, &out->constancy);
        node->cc = node->cc.Without(a);
        // Line 14 (drop R \ X) rests on Lemma 5 / Strengthen, which does
        // not survive threshold validity: two ε-repairs need not compose
        // into one. Exact mode only; approximate mode keeps the plain
        // subset-minimality candidates (cf. TANE's approximate variant).
        if (options_.max_error <= 0.0) {
          node->cc = node->cc.Intersect(node->set);
        }
      }
    }
    if (l < 2) return;
    // --- Compatibility side: X\{A,B}: A ~ B for {A,B} ∈ Cs+(X). ---
    std::vector<AttributePair> remaining;
    remaining.reserve(node->cs.size());
    for (AttributePair p : node->cs) {
      const int a = PairFirst(p);
      const int b = PairSecond(p);
      // Line 18: drop pairs whose endpoints lost FD-candidacy (Propagate).
      const LatticeLevel& previous = walk_.previous();
      const LatticeNode* parent_xb = previous.Find(node->set.Without(b));
      const LatticeNode* parent_xa = previous.Find(node->set.Without(a));
      FASTOD_DCHECK(parent_xb != nullptr && parent_xa != nullptr);
      if (!parent_xb->cc.Contains(a) || !parent_xa->cc.Contains(b)) {
        continue;  // removed from Cs+
      }
      const AttributeSet context = node->set.Without(a).Without(b);
      const StrippedPartition& context_partition = walk_.cache().Get(context);
      if (options_.key_pruning && context_partition.IsSuperkey()) {
        // Lemma 13: valid but never minimal — remove without emitting.
        ++out->key_prune_hits;
        continue;
      }
      ++out->swap_checks;
      if (CompatibilityHolds(checker, context_partition, a, b)) {
        Record(CompatibilityOd(context, a, b), &out->num_compatibility,
               &out->compatibility);
        continue;  // removed from Cs+ (line 22)
      }
      if (options_.discover_bidirectional) {
        ++out->swap_checks;
        if (BidiCompatibilityHolds(checker, context_partition, a, b)) {
          Record(BidiCompatibilityOd(context, a, b), &out->num_bidirectional,
               &out->bidirectional);
          continue;  // pair resolved with opposite polarity
        }
      }
      remaining.push_back(p);
    }
    node->cs = std::move(remaining);
  }

  // The FASTOD-NoPruning configuration: validate every non-trivial OD at
  // this node and count all valid ones, minimal or not (Exp-5/6).
  void ValidateNodeExhaustive(int l, LatticeNode* node, SwapChecker* checker,
                              NodeOutcome* out) {
    const AttributeSet set = node->set;
    const StrippedPartition& node_partition = walk_.cache().Get(set);
    for (int a = set.First(); a >= 0; a = set.Next(a)) {
      const AttributeSet context = set.Without(a);
      ++out->constancy_checks;
      if (ConstancyHolds(walk_.cache().Get(context), node_partition, a, node)) {
        Record(ConstancyOd{context, a}, &out->num_constancy, &out->constancy);
      }
    }
    if (l < 2) return;
    for (int a = set.First(); a >= 0; a = set.Next(a)) {
      for (int b = set.Next(a); b >= 0; b = set.Next(b)) {
        const AttributeSet context = set.Without(a).Without(b);
        ++out->swap_checks;
        if (CompatibilityHolds(checker, walk_.cache().Get(context), a, b)) {
          Record(CompatibilityOd(context, a, b), &out->num_compatibility,
               &out->compatibility);
        } else if (options_.discover_bidirectional) {
          ++out->swap_checks;
          if (BidiCompatibilityHolds(checker, walk_.cache().Get(context), a,
                                     b)) {
            Record(BidiCompatibilityOd(context, a, b), &out->num_bidirectional,
               &out->bidirectional);
          }
        }
      }
    }
  }

  // Accumulates one node's buffered outcome into the run result, the
  // level stats, and the sink, on the calling thread in node order.
  void MergeOutcome(NodeOutcome* o) {
    result_.num_constancy += o->num_constancy;
    result_.num_compatibility += o->num_compatibility;
    result_.num_bidirectional += o->num_bidirectional;
    stats_.constancy_found += o->num_constancy;
    stats_.compatibility_found += o->num_compatibility;
    stats_.bidirectional_found += o->num_bidirectional;
    stats_.constancy_checks += o->constancy_checks;
    stats_.swap_checks += o->swap_checks;
    stats_.swap_sample_refutes += o->swap_sample_refutes;
    stats_.swap_full_scans += o->swap_full_scans;
    stats_.key_prune_hits += o->key_prune_hits;
    stats_.partitions_reused += o->partitions_reused;
    if (OdSink* sink = options_.sink; sink != nullptr) {
      for (const ConstancyOd& od : o->constancy) sink->OnConstancy(od);
      for (const CompatibilityOd& od : o->compatibility) {
        sink->OnCompatibility(od);
      }
      for (const BidiCompatibilityOd& od : o->bidirectional) {
        sink->OnBidirectional(od);
      }
    }
    if (options_.emit_ods) {
      std::move(o->constancy.begin(), o->constancy.end(),
                std::back_inserter(result_.constancy_ods));
      std::move(o->compatibility.begin(), o->compatibility.end(),
                std::back_inserter(result_.compatibility_ods));
      std::move(o->bidirectional.begin(), o->bidirectional.end(),
                std::back_inserter(result_.bidirectional_ods));
    }
  }

  // Exact validity uses the O(1) partition-error identity of Section 4.6;
  // approximate validity (max_error > 0) uses the g3 removal errors. An
  // exact hit is recorded in node->determined in both modes: the derive
  // step may only share partitions on exact FDs, never on the threshold.
  bool ConstancyHolds(const StrippedPartition& context_partition,
                      const StrippedPartition& node_partition, int a,
                      LatticeNode* node) const {
    const bool exact = context_partition.Error() == node_partition.Error();
    if (exact) node->determined = node->determined.With(a);
    if (exact || options_.max_error <= 0.0) return exact;
    return ConstancyError(relation_, context_partition, a) <=
           options_.max_error;
  }

  bool CompatibilityHolds(SwapChecker* checker,
                          const StrippedPartition& context_partition, int a,
                          int b) const {
    if (options_.max_error <= 0.0) {
      return checker->IsOrderCompatible(context_partition, a, b);
    }
    return CompatibilityError(relation_, context_partition, a, b) <=
           options_.max_error;
  }

  bool BidiCompatibilityHolds(SwapChecker* checker,
                              const StrippedPartition& context_partition,
                              int a, int b) const {
    if (options_.max_error <= 0.0) {
      return checker->IsOrderCompatibleDirected(context_partition, a, b,
                                                /*opposite=*/true);
    }
    return CompatibilityError(relation_, context_partition, a, b,
                              /*opposite=*/true) <= options_.max_error;
  }

  // Counts a valid OD and buffers it for the merge when the run
  // materializes (emit_ods) or streams (sink) its ODs.
  template <typename Od>
  void Record(Od od, int64_t* count, std::vector<Od>* buffer) const {
    ++*count;
    if (options_.emit_ods || options_.sink != nullptr) buffer->push_back(od);
  }

  const EncodedRelation& relation_;
  const FastodOptions& options_;
  SortedPartitions sorted_;
  // One per party (ThreadPool::CurrentParty), reused across levels for
  // its scratch buffers.
  std::vector<SwapChecker> checkers_;
  std::vector<NodeOutcome> outcomes_;  // per node of the level
  FastodLevelStats stats_;             // the level's
  FastodResult result_;
  LatticeWalk walk_;
};

}  // namespace

std::string FastodResult::CountsToString() const {
  return std::to_string(NumOds()) + " (" + std::to_string(num_constancy) +
         " + " + std::to_string(num_compatibility) +
         (num_bidirectional > 0
              ? " + " + std::to_string(num_bidirectional) + " bidi"
              : "") +
         ")";
}

Fastod::Fastod(FastodOptions options) : options_(options) {}

FastodResult Fastod::Discover(
    const EncodedRelation& relation,
    const std::vector<StrippedPartition>* singletons) const {
  Run run(relation, options_, singletons);
  return run.Execute();
}

}  // namespace fastod
