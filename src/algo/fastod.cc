#include "algo/fastod.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "algo/approximate.h"
#include "api/od_sink.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "partition/partition_cache.h"

namespace fastod {

namespace {

// A pair {A,B} with A < B packed into 12 bits (A*64+B). Cs+(X) is a sorted
// vector of these.
using PairId = uint16_t;

PairId MakePair(int a, int b) {
  FASTOD_DCHECK(a != b);
  if (a > b) std::swap(a, b);
  return static_cast<PairId>(a * 64 + b);
}
int PairFirst(PairId p) { return p / 64; }
int PairSecond(PairId p) { return p % 64; }

bool SortedContains(const std::vector<PairId>& v, PairId p) {
  return std::binary_search(v.begin(), v.end(), p);
}

struct Node {
  AttributeSet set;
  AttributeSet cc;            // Cc+(X), subset of R
  std::vector<PairId> cs;     // Cs+(X), sorted
  // {A ∈ X : X\A -> A holds exactly}, as far as known: the parents' sets
  // (Augmentation) plus the exact constancy checks at X.
  AttributeSet determined;
  bool partition_reused = false;  // Π*_X shares a parent's partition
};

struct Level {
  std::vector<Node> nodes;
  std::unordered_map<AttributeSet, int32_t, AttributeSetHash> index;

  const Node* Find(AttributeSet set) const {
    auto it = index.find(set);
    return it == index.end() ? nullptr : &nodes[it->second];
  }
  void Add(Node node) {
    index.emplace(node.set, static_cast<int32_t>(nodes.size()));
    nodes.push_back(std::move(node));
  }
};

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

// The whole per-run state of one discovery, so Discover() stays const and
// re-entrant on the Fastod object.
class Run {
 public:
  Run(const EncodedRelation& relation, const FastodOptions& options,
      const std::vector<StrippedPartition>* singletons)
      : relation_(relation),
        options_(options),
        singletons_(singletons),
        full_set_(AttributeSet::FullSet(relation.NumAttributes())),
        sorted_(relation),
        deadline_(options.timeout_seconds > 0.0
                      ? Deadline::After(options.timeout_seconds)
                      : Deadline::Infinite()) {
    const int parties = std::max(1, options_.num_threads);
    if (parties > 1) {
      pool_ = std::make_unique<ThreadPool>(parties - 1, "fastod-od");
    }
    // One checker per party (ThreadPool::CurrentParty), reused across
    // levels for its scratch buffers.
    checkers_.reserve(parties);
    for (int i = 0; i < parties; ++i) {
      checkers_.emplace_back(&relation_, &sorted_, options_.swap_method);
    }
  }

  // The level-wise walk (Algorithm 1). Each level validates every node
  // (one task per node), merges the outcomes in node order, prunes, joins
  // the next level and derives its partitions (one task per child). The
  // batches run on the thread pool when num_threads > 1 and inline
  // otherwise; everything between them runs on the calling thread, so
  // output is identical at every thread count.
  FastodResult Execute() {
    WallTimer total_timer;
    InitializeLevels();
    const int m = relation_.NumAttributes();
    int l = 1;
    while (!current_.nodes.empty()) {
      if (options_.max_level > 0 && l > options_.max_level) break;
      WallTimer level_timer;
      level_busy_seconds_ = 0.0;
      FastodLevelStats stats;
      stats.level = l;
      stats.nodes = static_cast<int64_t>(current_.nodes.size());
      result_.total_nodes += stats.nodes;

      ComputeOds(l, &stats);
      if (Stopped()) {
        FinishLevel(level_timer, &stats);
        break;
      }
      PruneLevels(l, &stats);
      // Skip the apriori join for a level the max_level cap would refuse
      // anyway.
      Level next;
      if (options_.max_level == 0 || l < options_.max_level) {
        next = CalculateNextLevel(l);
      }
      FinishLevel(level_timer, &stats);
      result_.levels_processed = l;
      if (options_.control != nullptr && m > 0) {
        options_.control->ReportProgress(static_cast<double>(l) / m);
      }

      previous_ = std::move(current_);
      current_ = std::move(next);
      cache_.EvictBelow(l - 1);
      ++l;
      if (StopRequested()) break;
    }
    result_.timed_out = timed_out_.load();
    result_.cancelled = cancelled_.load();
    // A clean finish is 100%; early exits keep the last level's fraction
    // so pollers never see a cancelled/timed-out run as complete.
    if (options_.control != nullptr && !Stopped()) {
      options_.control->ReportProgress(1.0);
    }
    result_.partition_cache_gets = cache_.gets();
    result_.partition_cache_puts = cache_.puts();
    result_.seconds = total_timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  void InitializeLevels() {
    const int64_t n = relation_.NumRows();
    const int m = relation_.NumAttributes();
    // L0 = { {} } with Cc+({}) = R, Cs+({}) = {}.
    Node root;
    root.set = AttributeSet::Empty();
    root.cc = full_set_;
    previous_.Add(std::move(root));
    cache_.Put(0, AttributeSet::Empty(), StrippedPartition::Universe(n));
    for (int a = 0; a < m; ++a) {
      Node node;
      node.set = AttributeSet::Single(a);
      current_.Add(std::move(node));
      cache_.Put(1, AttributeSet::Single(a), SingletonPartition(a));
    }
  }

  // Π*_{A}: the dataset's prebuilt partition when available (load-once/
  // discover-many), computed otherwise.
  PartitionHandle SingletonPartition(int a) const {
    if (singletons_ == nullptr) {
      return std::make_shared<const StrippedPartition>(
          StrippedPartition::ForAttribute(relation_.codes(a)));
    }
    FASTOD_DCHECK(static_cast<int>(singletons_->size()) ==
                  relation_.NumAttributes());
    // Borrowed, not copied: the dataset owning the prebuilt partitions
    // outlives the Discover() call, and this run cannot outlive that.
    return BorrowPartition((*singletons_)[a]);
  }

  // Runs task(i) for every i in [0, n): inline in index order on a serial
  // run, else on the pool, adding the tasks' execution time to the
  // level's busy seconds (the occupancy numerator). Node batches also
  // feed the tasks_* counters, one task per lattice node.
  void RunBatch(size_t n, bool node_tasks,
                const std::function<void(size_t)>& task) {
    if (pool_ == nullptr) {
      for (size_t i = 0; i < n; ++i) task(i);
      return;
    }
    std::atomic<double> busy_seconds{0.0};
    std::atomic<int64_t> on_workers{0};
    pool_->ParallelFor(static_cast<int64_t>(n), [&](int64_t i) {
      WallTimer timer;
      task(static_cast<size_t>(i));
      busy_seconds.fetch_add(timer.ElapsedSeconds());
      if (ThreadPool::CurrentParty() != 0) on_workers.fetch_add(1);
    });
    level_busy_seconds_ += busy_seconds.load();
    if (node_tasks) {
      result_.tasks_spawned += static_cast<int64_t>(n);
      result_.tasks_stolen += on_workers.load();
    }
  }

  // Algorithm 3: candidate-set maintenance plus validation at level l,
  // one task per node, merged in node order: deterministic output for any
  // thread count. A sink streams at the merge; emit_ods independently
  // accumulates the vectors.
  void ComputeOds(int l, FastodLevelStats* stats) {
    std::vector<NodeOutcome> outcomes(current_.nodes.size());
    RunBatch(outcomes.size(), /*node_tasks=*/true, [&](size_t i) {
      ProcessNode(l, &current_.nodes[i], &outcomes[i]);
    });
    for (NodeOutcome& o : outcomes) {
      MergeOutcome(&o, stats);
    }
  }

  // One node task. Reads only the finished previous level and the
  // partition cache; writes only its own node and outcome slot.
  void ProcessNode(int l, Node* node, NodeOutcome* out) {
    if (StopRequested()) return;
    // Task-boundary fault point: "fail" degrades to cooperative
    // cancellation (the run ends flagged cancelled, like a control stop);
    // "throw" exercises ParallelFor's exception drain; "sleep" randomizes
    // completion order for the determinism stress tests.
    if (FASTOD_FAULT_POINT("task_graph.task")) {
      cancelled_.store(true);
      return;
    }
    if (options_.minimality_pruning) ComputeCandidateSets(l, node);
    ValidateNode(l, node, &checkers_[ThreadPool::CurrentParty()], out);
  }

  // Algorithm 4: delete nodes whose candidate sets are both empty.
  void PruneLevels(int l, FastodLevelStats* stats) {
    if (!options_.minimality_pruning || !options_.level_pruning || l < 2) {
      return;
    }
    Level pruned;
    for (Node& node : current_.nodes) {
      if (node.cc.IsEmpty() && node.cs.empty()) {
        ++stats->nodes_pruned;
        continue;
      }
      pruned.Add(std::move(node));
    }
    current_ = std::move(pruned);
  }

  // Algorithm 2: Apriori-style join of single-attribute-difference blocks,
  // plus the all-subsets-present check; derives each new node's partition
  // from its two generating parents (Section 4.6, PartitionCache::Derive).
  Level CalculateNextLevel(int l) {
    Level next;
    std::vector<std::pair<AttributeSet, AttributeSet>> parents;
    // Block key: the node's set minus its highest attribute. Two nodes in
    // the same block share an (l-1)-subset and differ in one attribute.
    std::unordered_map<AttributeSet, std::vector<int32_t>, AttributeSetHash>
        blocks;
    for (int32_t i = 0; i < static_cast<int32_t>(current_.nodes.size());
         ++i) {
      AttributeSet set = current_.nodes[i].set;
      int highest = -1;
      for (int a = set.First(); a >= 0; a = set.Next(a)) highest = a;
      blocks[set.Without(highest)].push_back(i);
    }
    // Deterministic iteration: sort block keys.
    std::vector<AttributeSet> keys;
    keys.reserve(blocks.size());
    for (const auto& [key, members] : blocks) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const AttributeSet& key : keys) {
      std::vector<int32_t>& members = blocks[key];
      std::sort(members.begin(), members.end(),
                [this](int32_t x, int32_t y) {
                  return current_.nodes[x].set < current_.nodes[y].set;
                });
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const AttributeSet a = current_.nodes[members[i]].set;
          const AttributeSet b = current_.nodes[members[j]].set;
          const AttributeSet candidate = a.Union(b);
          if (candidate.Count() != l + 1) continue;
          // All l-subsets must be live nodes of the current level; their
          // exact FDs carry over to the candidate (Augmentation).
          bool all_present = true;
          AttributeSet determined;
          for (int x = candidate.First(); x >= 0 && all_present;
               x = candidate.Next(x)) {
            const Node* parent = current_.Find(candidate.Without(x));
            if (parent == nullptr) {
              all_present = false;
            } else {
              determined = determined.Union(parent->determined);
            }
          }
          if (!all_present) continue;
          Node node;
          node.set = candidate;
          node.determined = determined;
          next.Add(std::move(node));
          parents.emplace_back(a, b);
        }
      }
    }
    // The derive steps — refinements are the bulk of the join's cost at
    // scale — run as one batch that only reads the cache; the puts follow
    // on this thread in join order, so no task ever waits on the cache's
    // exclusive lock.
    std::vector<PartitionCache::Derived> derived(parents.size());
    RunBatch(derived.size(), /*node_tasks=*/false, [&](size_t i) {
      derived[i] = cache_.Derive(relation_, parents[i].first,
                                 parents[i].second, next.nodes[i].determined);
    });
    for (size_t i = 0; i < derived.size(); ++i) {
      next.nodes[i].partition_reused = derived[i].reused;
      cache_.Put(l + 1, next.nodes[i].set, std::move(derived[i].partition));
    }
    return next;
  }

  // ===== Validation core ================================================

  // Cc+(X) and Cs+(X) from the (l-1)-subsets (Lemma 9 / Alg. 3 line 6).
  void ComputeCandidateSets(int l, Node* node) {
    // Cc+(X) = ∩_{A∈X} Cc+(X\A)  (Lemma 9).
    AttributeSet cc = full_set_;
    for (int a = node->set.First(); a >= 0; a = node->set.Next(a)) {
      const Node* parent = previous_.Find(node->set.Without(a));
      FASTOD_DCHECK(parent != nullptr);
      cc = cc.Intersect(parent->cc);
    }
    node->cc = cc;

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
    std::vector<PairId> candidates;
    for (int c = node->set.First(); c >= 0; c = node->set.Next(c)) {
      const Node* parent = previous_.Find(node->set.Without(c));
      FASTOD_DCHECK(parent != nullptr);
      candidates.insert(candidates.end(), parent->cs.begin(),
                        parent->cs.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    std::vector<PairId> kept;
    for (PairId p : candidates) {
      const int a = PairFirst(p);
      const int b = PairSecond(p);
      bool in_all = true;
      for (int d = node->set.First(); d >= 0 && in_all;
           d = node->set.Next(d)) {
        if (d == a || d == b) continue;
        const Node* parent = previous_.Find(node->set.Without(d));
        FASTOD_DCHECK(parent != nullptr);
        if (!SortedContains(parent->cs, p)) in_all = false;
      }
      if (in_all) kept.push_back(p);
    }
    node->cs = std::move(kept);
  }

  void ValidateNode(int l, Node* node, SwapChecker* checker,
                    NodeOutcome* out) {
    const int64_t refutes_before = checker->num_sample_refutes();
    const int64_t scans_before = checker->num_full_scans();
    if (options_.minimality_pruning) {
      ValidateNodeMinimal(l, node, checker, out);
    } else {
      ValidateNodeExhaustive(l, node, checker, out);
    }
    out->partitions_reused += node->partition_reused ? 1 : 0;
    out->swap_sample_refutes += checker->num_sample_refutes() - refutes_before;
    out->swap_full_scans += checker->num_full_scans() - scans_before;
  }

  void ValidateNodeMinimal(int l, Node* node, SwapChecker* checker,
                           NodeOutcome* out) {
    const StrippedPartition& node_partition = cache_.Get(node->set);
    // --- Constancy side: X\A: [] -> A for A ∈ X ∩ Cc+(X) (Lemma 7). ---
    AttributeSet fd_candidates = node->set.Intersect(node->cc);
    for (int a = fd_candidates.First(); a >= 0; a = fd_candidates.Next(a)) {
      const AttributeSet context = node->set.Without(a);
      const StrippedPartition& context_partition = cache_.Get(context);
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
        RecordConstancy(ConstancyOd{context, a}, out);
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
    std::vector<PairId> remaining;
    remaining.reserve(node->cs.size());
    for (PairId p : node->cs) {
      const int a = PairFirst(p);
      const int b = PairSecond(p);
      // Line 18: drop pairs whose endpoints lost FD-candidacy (Propagate).
      const Node* parent_xb = previous_.Find(node->set.Without(b));
      const Node* parent_xa = previous_.Find(node->set.Without(a));
      FASTOD_DCHECK(parent_xb != nullptr && parent_xa != nullptr);
      if (!parent_xb->cc.Contains(a) || !parent_xa->cc.Contains(b)) {
        continue;  // removed from Cs+
      }
      const AttributeSet context = node->set.Without(a).Without(b);
      const StrippedPartition& context_partition = cache_.Get(context);
      if (options_.key_pruning && context_partition.IsSuperkey()) {
        // Lemma 13: valid but never minimal — remove without emitting.
        ++out->key_prune_hits;
        continue;
      }
      ++out->swap_checks;
      if (CompatibilityHolds(checker, context_partition, a, b)) {
        RecordCompatibility(CompatibilityOd(context, a, b), out);
        continue;  // removed from Cs+ (line 22)
      }
      if (options_.discover_bidirectional) {
        ++out->swap_checks;
        if (BidiCompatibilityHolds(checker, context_partition, a, b)) {
          RecordBidirectional(BidiCompatibilityOd(context, a, b), out);
          continue;  // pair resolved with opposite polarity
        }
      }
      remaining.push_back(p);
    }
    node->cs = std::move(remaining);
  }

  // The FASTOD-NoPruning configuration: validate every non-trivial OD at
  // this node and count all valid ones, minimal or not (Exp-5/6).
  void ValidateNodeExhaustive(int l, Node* node, SwapChecker* checker,
                              NodeOutcome* out) {
    const AttributeSet set = node->set;
    const StrippedPartition& node_partition = cache_.Get(set);
    for (int a = set.First(); a >= 0; a = set.Next(a)) {
      const AttributeSet context = set.Without(a);
      ++out->constancy_checks;
      if (ConstancyHolds(cache_.Get(context), node_partition, a, node)) {
        RecordConstancy(ConstancyOd{context, a}, out);
      }
    }
    if (l < 2) return;
    for (int a = set.First(); a >= 0; a = set.Next(a)) {
      for (int b = set.Next(a); b >= 0; b = set.Next(b)) {
        const AttributeSet context = set.Without(a).Without(b);
        ++out->swap_checks;
        if (CompatibilityHolds(checker, cache_.Get(context), a, b)) {
          RecordCompatibility(CompatibilityOd(context, a, b), out);
        } else if (options_.discover_bidirectional) {
          ++out->swap_checks;
          if (BidiCompatibilityHolds(checker, cache_.Get(context), a, b)) {
            RecordBidirectional(BidiCompatibilityOd(context, a, b), out);
          }
        }
      }
    }
  }

  // Accumulates one node's buffered outcome into the run result, the
  // level stats, and the sink, on the calling thread in node order.
  void MergeOutcome(NodeOutcome* o, FastodLevelStats* stats) {
    result_.num_constancy += o->num_constancy;
    result_.num_compatibility += o->num_compatibility;
    result_.num_bidirectional += o->num_bidirectional;
    stats->constancy_found += o->num_constancy;
    stats->compatibility_found += o->num_compatibility;
    stats->bidirectional_found += o->num_bidirectional;
    stats->constancy_checks += o->constancy_checks;
    stats->swap_checks += o->swap_checks;
    stats->swap_sample_refutes += o->swap_sample_refutes;
    stats->swap_full_scans += o->swap_full_scans;
    stats->key_prune_hits += o->key_prune_hits;
    stats->partitions_reused += o->partitions_reused;
    result_.partitions_reused += o->partitions_reused;
    if (options_.sink != nullptr) {
      for (const ConstancyOd& od : o->constancy) {
        options_.sink->OnConstancy(od);
      }
      for (const CompatibilityOd& od : o->compatibility) {
        options_.sink->OnCompatibility(od);
      }
      for (const BidiCompatibilityOd& od : o->bidirectional) {
        options_.sink->OnBidirectional(od);
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
                      Node* node) const {
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

  // The safepoint, polled at every node task and between levels: latches
  // the run's own timeout as timed_out and a control stop as cancelled.
  // Deadline expiry armed on the control (the hard timeout-ms) stops the
  // run the same way; Algorithm::Execute turns it into a
  // kDeadlineExceeded error afterwards.
  bool StopRequested() {
    if (Stopped()) return true;
    if (deadline_.Exceeded()) {
      timed_out_.store(true);
      return true;
    }
    if (options_.control != nullptr && options_.control->StopRequested()) {
      cancelled_.store(true);
      return true;
    }
    return false;
  }

  bool Stopped() const {
    return timed_out_.load() ||
           cancelled_.load();
  }

  // Per-node buffers are needed both to materialize (emit_ods) and to
  // stream (sink): streaming drains them at the deterministic merge.
  bool BufferOds() const {
    return options_.emit_ods || options_.sink != nullptr;
  }

  void RecordConstancy(ConstancyOd od, NodeOutcome* out) const {
    ++out->num_constancy;
    if (BufferOds()) out->constancy.push_back(od);
  }

  void RecordCompatibility(CompatibilityOd od, NodeOutcome* out) const {
    ++out->num_compatibility;
    if (BufferOds()) out->compatibility.push_back(od);
  }

  void RecordBidirectional(BidiCompatibilityOd od, NodeOutcome* out) const {
    ++out->num_bidirectional;
    if (BufferOds()) out->bidirectional.push_back(od);
  }

  void FinishLevel(const WallTimer& timer, FastodLevelStats* stats) {
    stats->seconds = timer.ElapsedSeconds();
    if (pool_ != nullptr && stats->seconds > 0.0) {
      const int party = pool_->num_threads() + 1;
      stats->occupancy =
          std::min(1.0, level_busy_seconds_ / (stats->seconds * party));
    }
    if (options_.collect_level_stats) result_.level_stats.push_back(*stats);
  }

  const EncodedRelation& relation_;
  const FastodOptions& options_;
  const std::vector<StrippedPartition>* singletons_;
  AttributeSet full_set_;
  SortedPartitions sorted_;
  Deadline deadline_;
  std::unique_ptr<ThreadPool> pool_;  // null on a serial run
  std::vector<SwapChecker> checkers_;  // one per party
  PartitionCache cache_;
  Level previous_;  // level l-1, finished (final Cc+/Cs+)
  Level current_;   // level l
  double level_busy_seconds_ = 0.0;  // level l's summed task time
  // The cross-task stop signal, latched by StopRequested().
  std::atomic<bool> timed_out_{false};
  std::atomic<bool> cancelled_{false};
  FastodResult result_;
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

Result<FastodResult> Fastod::Discover(const Table& table) const {
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  if (!encoded.ok()) return encoded.status();
  return Discover(*encoded);
}

}  // namespace fastod
