#include "algo/fastod.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "algo/approximate.h"
#include "api/od_sink.h"
#include "common/fault.h"
#include "common/task_graph.h"
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

  Node* Find(AttributeSet set) {
    auto it = index.find(set);
    return it == index.end() ? nullptr : &nodes[it->second];
  }
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

// One lattice node of the task-graph path. Dependency tracking and the
// bookkeeping fields (bumps, parents) are guarded by Run::tg_mutex_; the
// candidate sets and outcome are written only by the node's own task and
// read only after it finished (FinishNodeTask's mutex acquisition is the
// release/acquire edge).
struct TgNode {
  AttributeSet set;
  int level = 0;
  AttributeSet cc;
  std::vector<PairId> cs;
  AttributeSet determined;  // as Node::determined
  bool partition_reused = false;
  // The node's finished-alive (l-1)-subsets, in finish (arrival) order.
  std::vector<const TgNode*> parents;
  int bumps = 0;  // parents recorded so far; == level ⇒ runnable
  bool ran = false;
  bool alive = false;  // survives Lemma 11 pruning
  NodeOutcome outcome;
  double task_seconds = 0.0;
};

// Per-level progress of the task-graph path (guarded by Run::tg_mutex_,
// except the emission itself which is serialized by tg_emitting_).
struct TgLevel {
  std::vector<TgNode*> order;    // canonical (sequential) emission order
  std::vector<TgNode*> created;  // every node minted at this level
  bool structure_known = false;  // membership final; `expected` valid
  bool emitted = false;
  int64_t expected = 0;
  int64_t finished = 0;
  double start_seconds = 0.0;  // vs run start, for the occupancy gauge
  double busy_seconds = 0.0;   // summed task execution time
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
        serial_checker_(&relation, &sorted_, options.swap_method),
        deadline_(options.timeout_seconds > 0.0
                      ? Deadline::After(options.timeout_seconds)
                      : Deadline::Infinite()) {
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads - 1,
                                           "fastod-od");
    }
  }

  FastodResult Execute() {
    return pool_ != nullptr ? ExecuteTaskGraph() : ExecuteSerial();
  }

 private:
  // ===== Serial level-wise walk (num_threads == 1) =====================
  // The reference implementation: its node order is the canonical order
  // the task-graph path reproduces, and its output is the equivalence
  // oracle for every parallel run (tests/parallel_test.cc).

  FastodResult ExecuteSerial() {
    WallTimer total_timer;
    InitializeLevels();
    const int m = relation_.NumAttributes();
    int l = 1;
    while (!current_.nodes.empty()) {
      if (options_.max_level > 0 && l > options_.max_level) break;
      WallTimer level_timer;
      FastodLevelStats stats;
      stats.level = l;
      stats.nodes = static_cast<int64_t>(current_.nodes.size());
      result_.total_nodes += stats.nodes;

      ComputeOds(l, &stats);
      if (result_.timed_out || result_.cancelled) {
        FinishLevel(level_timer, &stats);
        break;
      }
      PruneLevels(l, &stats);
      // Skip the apriori join for a level the max_level cap would refuse
      // anyway (the task-graph path never creates those nodes either).
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
      if (deadline_.Exceeded()) {
        result_.timed_out = true;
        break;
      }
      if (Cancelled()) {
        result_.cancelled = true;
        break;
      }
    }
    // A clean finish is 100%; early exits keep the last level's fraction
    // so pollers never see a cancelled/timed-out run as complete.
    if (options_.control != nullptr && !result_.timed_out &&
        !result_.cancelled) {
      options_.control->ReportProgress(1.0);
    }
    result_.partition_cache_gets = cache_.gets();
    result_.partition_cache_puts = cache_.puts();
    result_.seconds = total_timer.ElapsedSeconds();
    return std::move(result_);
  }

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

  // Algorithm 3: candidate-set maintenance plus validation at level l.
  void ComputeOds(int l, FastodLevelStats* stats) {
    const int64_t num_nodes = static_cast<int64_t>(current_.nodes.size());
    auto parent_of = [this](AttributeSet set) {
      return previous_.Find(set);
    };
    // Phase 1: derive Cc+ / Cs+ for every node from the previous level.
    if (options_.minimality_pruning) {
      for (int64_t i = 0; i < num_nodes; ++i) {
        ComputeCandidateSets(l, &current_.nodes[i], parent_of);
      }
    }
    // Phase 2: validate every node against the partition cache.
    std::vector<NodeOutcome> outcomes(num_nodes);
    for (int64_t i = 0; i < num_nodes; ++i) {
      if ((i & 0xff) == 0) {
        if (deadline_.Exceeded()) {
          result_.timed_out = true;
          break;
        }
        if (Cancelled()) {
          result_.cancelled = true;
          break;
        }
      }
      // Serial: reuse the persistent checker's scratch buffers.
      ValidateNode(l, &current_.nodes[i], parent_of, &serial_checker_,
                   &outcomes[i]);
    }
    // Merge in node order: deterministic output for any thread count. A
    // sink streams here; emit_ods independently accumulates the vectors.
    for (NodeOutcome& o : outcomes) {
      MergeOutcome(&o, stats);
    }
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
          PartitionCache::Derived derived = cache_.Derive(a, b, determined);
          Node node;
          node.set = candidate;
          node.determined = determined;
          node.partition_reused = derived.reused;
          next.Add(std::move(node));
          cache_.Put(l + 1, candidate, std::move(derived.partition));
        }
      }
    }
    return next;
  }

  // ===== Task-graph execution (num_threads > 1) ========================
  // One task per lattice node. A node task derives the node's stripped
  // partition from its two canonical parents, derives Cc+/Cs+, validates,
  // then bumps each (l+1)-superset's dependency counter — a child spawns
  // the instant all of its l-subsets have finished alive, with no barrier
  // between levels. Determinism is restored at emission: per-node
  // outcomes are buffered, and when a level completes, the cascade
  // replays Algorithm 2's join order over the level's alive set (which
  // depends only on validation results, not scheduling) and merges in
  // exactly the order the serial walk would have used.

  FastodResult ExecuteTaskGraph() {
    const int m = relation_.NumAttributes();
    TaskGraph graph(pool_.get());
    tg_graph_ = &graph;
    tg_levels_.resize(m + 2);

    // Level 0: the root is finished and alive by construction.
    cache_.Put(0, AttributeSet::Empty(),
               StrippedPartition::Universe(relation_.NumRows()));
    TgNode* root = FindOrCreateTgNode(AttributeSet::Empty(), 0);
    root->cc = full_set_;
    root->ran = true;
    root->alive = true;
    TgLevel& l0 = tg_levels_[0];
    l0.order.push_back(root);
    l0.structure_known = true;
    l0.emitted = true;
    l0.expected = 1;
    l0.finished = 1;

    // Level 1: all singletons, in attribute order (the canonical order).
    TgLevel& l1 = tg_levels_[1];
    l1.structure_known = true;
    l1.expected = m;
    tg_next_unemitted_ = 1;
    for (int a = 0; a < m; ++a) {
      TgNode* node = FindOrCreateTgNode(AttributeSet::Single(a), 1);
      node->parents.push_back(root);
      node->bumps = 1;
      l1.order.push_back(node);
    }
    for (TgNode* node : l1.order) SpawnNodeTask(node);
    graph.Run();

    if (tg_timed_out_.load()) result_.timed_out = true;
    if (tg_cancelled_.load()) result_.cancelled = true;
    if (options_.control != nullptr && !result_.timed_out &&
        !result_.cancelled) {
      options_.control->ReportProgress(1.0);
    }
    result_.tasks_ready = tg_ready_.load(std::memory_order_relaxed);
    result_.tasks_spawned = graph.spawned();
    result_.tasks_stolen = graph.stolen();
    result_.partition_cache_gets = cache_.gets();
    result_.partition_cache_puts = cache_.puts();
    result_.seconds = tg_timer_.ElapsedSeconds();
    return std::move(result_);
  }

  void SpawnNodeTask(TgNode* node) {
    tg_ready_.fetch_add(1, std::memory_order_relaxed);
    tg_graph_->Spawn([this, node] { RunNodeTask(node); });
  }

  void RunNodeTask(TgNode* node) {
    WallTimer timer;
    bool stopped = tg_stop_.load(std::memory_order_acquire);
    // Task-boundary fault point: "fail" degrades to cooperative
    // cancellation (the run ends flagged cancelled, like a control
    // stop); "throw" exercises the TaskGraph exception drain; "sleep"
    // randomizes completion order for the determinism stress tests.
    if (!stopped && FASTOD_FAULT_POINT("task_graph.task")) {
      tg_cancelled_.store(true);
      tg_stop_.store(true, std::memory_order_release);
      stopped = true;
    }
    if (!stopped) {
      const int l = node->level;
      // The node's partition, derived from its two canonical parents
      // exactly as the serial join derives it. Every parent is cached and
      // its determined set final — a task only becomes ready after every
      // parent finished.
      if (l == 1) {
        cache_.Put(1, node->set, SingletonPartition(node->set.First()));
      } else {
        int y1 = -1, y2 = -1;  // the two highest attributes, y1 < y2
        for (int a = node->set.First(); a >= 0; a = node->set.Next(a)) {
          y1 = y2;
          y2 = a;
        }
        for (const TgNode* p : node->parents) {
          node->determined = node->determined.Union(p->determined);
        }
        PartitionCache::Derived derived =
            cache_.Derive(node->set.Without(y2), node->set.Without(y1),
                          node->determined);
        node->partition_reused = derived.reused;
        cache_.Put(l, node->set, std::move(derived.partition));
      }
      auto parent_of = [node](AttributeSet set) -> const TgNode* {
        for (const TgNode* p : node->parents) {
          if (p->set == set) return p;
        }
        return nullptr;
      };
      if (options_.minimality_pruning) {
        ComputeCandidateSets(l, node, parent_of);
      }
      SwapChecker checker(&relation_, &sorted_, options_.swap_method);
      ValidateNode(l, node, parent_of, &checker, &node->outcome);
      node->ran = true;
      node->alive = !(options_.minimality_pruning &&
                      options_.level_pruning && l >= 2 &&
                      node->cc.IsEmpty() && node->cs.empty());
      // Safepoints: deadline and cooperative cancellation, checked at
      // every task boundary (finer-grained than the serial per-level
      // checks). A stop lets in-flight tasks drain as cheap no-ops.
      if (deadline_.Exceeded()) {
        tg_timed_out_.store(true);
        tg_stop_.store(true, std::memory_order_release);
      } else if (Cancelled()) {
        tg_cancelled_.store(true);
        tg_stop_.store(true, std::memory_order_release);
      }
    }
    node->task_seconds = timer.ElapsedSeconds();
    FinishNodeTask(node);
  }

  // Records a finished task, resolves child dependencies, and drives the
  // in-order emission cascade.
  void FinishNodeTask(TgNode* node) {
    const int m = relation_.NumAttributes();
    std::vector<TgNode*> runnable;
    std::unique_lock<std::mutex> lock(tg_mutex_);
    TgLevel& lv = tg_levels_[node->level];
    ++lv.finished;
    lv.busy_seconds += node->task_seconds;
    const int next_l = node->level + 1;
    if (node->ran && node->alive && next_l <= m &&
        (options_.max_level == 0 || next_l <= options_.max_level) &&
        !tg_stop_.load(std::memory_order_relaxed)) {
      for (int b = 0; b < m; ++b) {
        if (node->set.Contains(b)) continue;
        TgNode* child = FindOrCreateTgNode(node->set.With(b), next_l);
        child->parents.push_back(node);
        if (++child->bumps == next_l) runnable.push_back(child);
      }
    }
    Cascade(lock);
    lock.unlock();
    // Spawn outside the tracker lock: the child may start (and finish)
    // on another worker immediately.
    for (TgNode* child : runnable) SpawnNodeTask(child);
  }

  // Emits every completed level in order. Called with tg_mutex_ held;
  // releases it around the emission itself (sinks may block on
  // backpressure) with tg_emitting_ serializing emitters.
  void Cascade(std::unique_lock<std::mutex>& lock) {
    while (tg_next_unemitted_ < static_cast<int>(tg_levels_.size())) {
      TgLevel& lv = tg_levels_[tg_next_unemitted_];
      if (!lv.structure_known || lv.finished < lv.expected) return;
      if (tg_emitting_) return;  // the active emitter re-runs the cascade
      tg_emitting_ = true;
      const int v = tg_next_unemitted_;
      lock.unlock();
      const bool fully_ran = EmitLevel(v);
      lock.lock();
      tg_emitting_ = false;
      lv.emitted = true;
      ++tg_next_unemitted_;
      if (lv.expected == 0) return;  // lattice exhausted
      if (!fully_ran || tg_stop_.load(std::memory_order_relaxed)) return;
      PrepareNextLevel(v);
      // Levels ≤ v are fully finished, so running tasks sit at levels
      // ≥ v+1 and read partitions at levels ≥ v-1 (a node's deepest
      // read is its grandparent context X\{A,B}); nodes two levels
      // down are likewise unreachable. Release both.
      cache_.EvictBelow(v - 1);
      if (v >= 2) FreeLevel(v - 2);
    }
  }

  // Merges one completed level in canonical node order — the only writer
  // of result_ on the task-graph path, serialized by tg_emitting_.
  // Returns false if a stop left part of the level unexecuted (the
  // partial outcomes are still merged, like the serial timeout path).
  bool EmitLevel(int v) {
    TgLevel& lv = tg_levels_[v];
    if (lv.order.empty()) return true;
    FastodLevelStats stats;
    stats.level = v;
    stats.nodes = lv.expected;
    bool fully_ran = true;
    for (TgNode* node : lv.order) {
      if (!node->ran) {
        fully_ran = false;
        continue;
      }
      if (!node->alive) ++stats.nodes_pruned;
      MergeOutcome(&node->outcome, &stats);
    }
    result_.total_nodes += lv.expected;
    const int m = relation_.NumAttributes();
    if (fully_ran) {
      result_.levels_processed = v;
      if (options_.control != nullptr && m > 0) {
        options_.control->ReportProgress(static_cast<double>(v) / m);
      }
    }
    stats.seconds = tg_timer_.ElapsedSeconds() - lv.start_seconds;
    const int party = pool_->num_threads() + 1;
    if (stats.seconds > 0.0) {
      stats.occupancy =
          std::min(1.0, lv.busy_seconds / (stats.seconds * party));
    }
    if (options_.collect_level_stats) result_.level_stats.push_back(stats);
    return fully_ran;
  }

  // Fixes level v+1's membership and canonical order by replaying
  // Algorithm 2's join over level v's alive nodes. Runs under tg_mutex_
  // once level v has fully finished, so membership is final: every
  // candidate with all l-subsets alive has already been created (and
  // spawned) by dependency bumps. Candidates that can never run — some
  // subset finished dead — are garbage-collected here.
  void PrepareNextLevel(int v) {
    TgLevel& lv = tg_levels_[v];
    TgLevel& next = tg_levels_[v + 1];
    next.start_seconds = tg_timer_.ElapsedSeconds();
    std::unordered_map<AttributeSet, std::vector<int32_t>, AttributeSetHash>
        blocks;
    std::vector<TgNode*> alive;
    alive.reserve(lv.order.size());
    for (TgNode* n : lv.order) {
      if (n->alive) alive.push_back(n);
    }
    for (int32_t i = 0; i < static_cast<int32_t>(alive.size()); ++i) {
      AttributeSet set = alive[i]->set;
      int highest = -1;
      for (int a = set.First(); a >= 0; a = set.Next(a)) highest = a;
      blocks[set.Without(highest)].push_back(i);
    }
    std::vector<AttributeSet> keys;
    keys.reserve(blocks.size());
    for (const auto& [key, members] : blocks) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const AttributeSet& key : keys) {
      std::vector<int32_t>& members = blocks[key];
      std::sort(members.begin(), members.end(),
                [&alive](int32_t x, int32_t y) {
                  return alive[x]->set < alive[y]->set;
                });
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const AttributeSet candidate =
              alive[members[i]]->set.Union(alive[members[j]]->set);
          if (candidate.Count() != v + 1) continue;
          auto it = tg_nodes_.find(candidate);
          // Fully-bumped ⇔ all (l-1)-subsets finished alive — the same
          // predicate as the serial all-subsets-present check.
          if (it == tg_nodes_.end() || it->second->bumps != v + 1) {
            continue;
          }
          next.order.push_back(it->second.get());
        }
      }
    }
    next.expected = static_cast<int64_t>(next.order.size());
    next.structure_known = true;
    // Drop dependency counters that will never fire: level v is done, so
    // no further bumps can arrive at level v+1.
    for (TgNode* n : next.created) {
      if (n->bumps != v + 1) tg_nodes_.erase(n->set);
    }
    next.created.clear();
  }

  // Releases the nodes of an emitted level once nothing can read them:
  // their children (the only readers of cc/cs via parent links) have all
  // finished, and their outcomes were merged at emission.
  void FreeLevel(int v) {
    for (TgNode* n : tg_levels_[v].order) tg_nodes_.erase(n->set);
    tg_levels_[v].order.clear();
  }

  TgNode* FindOrCreateTgNode(AttributeSet set, int level) {
    auto it = tg_nodes_.find(set);
    if (it != tg_nodes_.end()) return it->second.get();
    auto node = std::make_unique<TgNode>();
    node->set = set;
    node->level = level;
    TgNode* raw = node.get();
    tg_levels_[level].created.push_back(raw);
    tg_nodes_.emplace(set, std::move(node));
    return raw;
  }

  // ===== Shared validation core ========================================
  // Generic over the node record and parent lookup: the serial path
  // passes Level::Find over the previous level, the task-graph path a
  // scan of the node's parent links. Both return a pointer exposing
  // .cc/.cs, which is all Algorithm 3 needs.

  // Cc+(X) and Cs+(X) from the (l-1)-subsets (Lemma 9 / Alg. 3 line 6).
  template <typename NodeT, typename ParentFn>
  void ComputeCandidateSets(int l, NodeT* node, const ParentFn& parent_of) {
    // Cc+(X) = ∩_{A∈X} Cc+(X\A)  (Lemma 9).
    AttributeSet cc = full_set_;
    for (int a = node->set.First(); a >= 0; a = node->set.Next(a)) {
      const auto* parent = parent_of(node->set.Without(a));
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
      const auto* parent = parent_of(node->set.Without(c));
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
        const auto* parent = parent_of(node->set.Without(d));
        FASTOD_DCHECK(parent != nullptr);
        if (!SortedContains(parent->cs, p)) in_all = false;
      }
      if (in_all) kept.push_back(p);
    }
    node->cs = std::move(kept);
  }

  template <typename NodeT, typename ParentFn>
  void ValidateNode(int l, NodeT* node, const ParentFn& parent_of,
                    SwapChecker* checker, NodeOutcome* out) {
    const int64_t refutes_before = checker->num_sample_refutes();
    const int64_t scans_before = checker->num_full_scans();
    if (options_.minimality_pruning) {
      ValidateNodeMinimal(l, node, parent_of, checker, out);
    } else {
      ValidateNodeExhaustive(l, node, checker, out);
    }
    out->partitions_reused += node->partition_reused ? 1 : 0;
    out->swap_sample_refutes += checker->num_sample_refutes() - refutes_before;
    out->swap_full_scans += checker->num_full_scans() - scans_before;
  }

  template <typename NodeT, typename ParentFn>
  void ValidateNodeMinimal(int l, NodeT* node, const ParentFn& parent_of,
                           SwapChecker* checker, NodeOutcome* out) {
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
      const auto* parent_xb = parent_of(node->set.Without(b));
      const auto* parent_xa = parent_of(node->set.Without(a));
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
  template <typename NodeT>
  void ValidateNodeExhaustive(int l, NodeT* node, SwapChecker* checker,
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
  // level stats, and the sink — the single merge point both execution
  // paths share, so their emission behavior cannot drift apart.
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
  template <typename NodeT>
  bool ConstancyHolds(const StrippedPartition& context_partition,
                      const StrippedPartition& node_partition, int a,
                      NodeT* node) const {
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

  // Deadline expiry (the hard timeout-ms armed on the control) stops the
  // run at the same safepoints as cancellation; Algorithm::Execute turns
  // it into a kDeadlineExceeded error afterwards.
  bool Cancelled() const {
    return options_.control != nullptr && options_.control->StopRequested();
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
    if (options_.collect_level_stats) result_.level_stats.push_back(*stats);
  }

  const EncodedRelation& relation_;
  const FastodOptions& options_;
  const std::vector<StrippedPartition>* singletons_;
  AttributeSet full_set_;
  SortedPartitions sorted_;
  SwapChecker serial_checker_;
  Deadline deadline_;
  std::unique_ptr<ThreadPool> pool_;
  PartitionCache cache_;
  Level previous_;  // serial path: level l-1 node state (final Cc+/Cs+)
  Level current_;   // serial path: level l
  FastodResult result_;

  // Task-graph state. tg_mutex_ guards the node map, dependency
  // counters, and level bookkeeping; tg_emitting_ serializes result
  // emission outside the lock; the atomics are the cross-task stop
  // signal.
  TaskGraph* tg_graph_ = nullptr;
  WallTimer tg_timer_;
  std::mutex tg_mutex_;
  std::unordered_map<AttributeSet, std::unique_ptr<TgNode>, AttributeSetHash>
      tg_nodes_;
  std::vector<TgLevel> tg_levels_;
  int tg_next_unemitted_ = 0;
  bool tg_emitting_ = false;
  std::atomic<int64_t> tg_ready_{0};
  std::atomic<bool> tg_stop_{false};
  std::atomic<bool> tg_timed_out_{false};
  std::atomic<bool> tg_cancelled_{false};
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
