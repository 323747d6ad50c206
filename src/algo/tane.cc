#include "algo/tane.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "api/od_sink.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "od/attribute_set.h"
#include "partition/partition_cache.h"

namespace fastod {

namespace {

struct Node {
  AttributeSet set;
  AttributeSet cc;  // Cc+(X)
  // {A ∈ X : X\A -> A holds exactly}, as far as known: the parents' sets
  // (Augmentation) plus the FDs validated at X.
  AttributeSet determined;
};

struct Level {
  std::vector<Node> nodes;
  std::unordered_map<AttributeSet, int32_t, AttributeSetHash> index;

  Node* Find(AttributeSet set) {
    auto it = index.find(set);
    return it == index.end() ? nullptr : &nodes[it->second];
  }
  void Add(Node node) {
    index.emplace(node.set, static_cast<int32_t>(nodes.size()));
    nodes.push_back(std::move(node));
  }
};

class Run {
 public:
  Run(const EncodedRelation& relation, const TaneOptions& options,
      const std::vector<StrippedPartition>* singletons)
      : relation_(relation),
        options_(options),
        singletons_(singletons),
        full_set_(AttributeSet::FullSet(relation.NumAttributes())),
        deadline_(options.timeout_seconds > 0.0
                      ? Deadline::After(options.timeout_seconds)
                      : Deadline::Infinite()) {
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads - 1,
                                           "fastod-fd");
    }
  }

  TaneResult Execute() {
    WallTimer timer;
    Initialize();
    const int m = relation_.NumAttributes();
    int l = 1;
    while (!current_.nodes.empty()) {
      if (options_.max_level > 0 && l > options_.max_level) break;
      result_.total_nodes += static_cast<int64_t>(current_.nodes.size());
      ComputeDependencies();
      if (faulted_.load()) break;
      Prune();
      // Skip the join for a level the max_level cap would refuse anyway.
      Level next;
      if (options_.max_level == 0 || l < options_.max_level) {
        next = CalculateNextLevel(l);
      }
      if (faulted_.load()) break;
      result_.levels_processed = l;
      if (options_.control != nullptr && m > 0) {
        options_.control->ReportProgress(static_cast<double>(l) / m);
      }
      previous_ = std::move(current_);
      current_ = std::move(next);
      cache_.EvictBelow(l);
      ++l;
      if (deadline_.Exceeded()) {
        result_.timed_out = true;
        break;
      }
      if (options_.control != nullptr && options_.control->StopRequested()) {
        result_.cancelled = true;
        break;
      }
    }
    if (faulted_.load()) result_.cancelled = true;
    // Early exits keep the last level's fraction; only a clean finish
    // reports 100%.
    if (options_.control != nullptr && !result_.timed_out &&
        !result_.cancelled) {
      options_.control->ReportProgress(1.0);
    }
    result_.partition_cache_gets = cache_.gets();
    result_.partition_cache_puts = cache_.puts();
    result_.seconds = timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  void Initialize() {
    const int64_t n = relation_.NumRows();
    Node root;
    root.set = AttributeSet::Empty();
    root.cc = full_set_;
    previous_.Add(std::move(root));
    cache_.Put(0, AttributeSet::Empty(), StrippedPartition::Universe(n));
    FASTOD_DCHECK(singletons_ == nullptr ||
                  static_cast<int>(singletons_->size()) ==
                      relation_.NumAttributes());
    for (int a = 0; a < relation_.NumAttributes(); ++a) {
      Node node;
      node.set = AttributeSet::Single(a);
      current_.Add(std::move(node));
      // Prebuilt partitions are borrowed, not copied: the dataset owning
      // them outlives the Discover() call, and this run cannot outlive it.
      cache_.Put(1, AttributeSet::Single(a),
                 singletons_ != nullptr
                     ? BorrowPartition((*singletons_)[a])
                     : std::make_shared<const StrippedPartition>(
                           StrippedPartition::ForAttribute(
                               relation_.codes(a))));
    }
  }

  // Derives Cc+(X) from the previous level and validates the candidate
  // FDs of one node. Reads only the immutable previous level and the
  // partition cache; writes only its own node and `found` slot — safe to
  // run for all nodes concurrently.
  void ProcessNode(Node* node, std::vector<ConstancyOd>* found) {
    if (TaskFaulted()) return;
    AttributeSet cc = full_set_;
    for (int a = node->set.First(); a >= 0; a = node->set.Next(a)) {
      Node* parent = previous_.Find(node->set.Without(a));
      FASTOD_DCHECK(parent != nullptr);
      cc = cc.Intersect(parent->cc);
    }
    node->cc = cc;
    const StrippedPartition& node_partition = cache_.Get(node->set);
    AttributeSet candidates = node->set.Intersect(node->cc);
    for (int a = candidates.First(); a >= 0; a = candidates.Next(a)) {
      const AttributeSet context = node->set.Without(a);
      const StrippedPartition& context_partition = cache_.Get(context);
      if (context_partition.Error() == node_partition.Error()) {
        found->push_back(ConstancyOd{context, a});
        node->determined = node->determined.With(a);
        node->cc = node->cc.Without(a);
        node->cc = node->cc.Intersect(node->set);
      }
    }
  }

  // Runs task(i) for every i in [0, n): inline in index order on a serial
  // run, else on the pool. Node batches feed the tasks_* counters, one
  // task per lattice node.
  void RunBatch(size_t n, bool node_tasks,
                const std::function<void(size_t)>& task) {
    if (pool_ == nullptr) {
      for (size_t i = 0; i < n; ++i) task(i);
      return;
    }
    std::atomic<int64_t> on_workers{0};
    pool_->ParallelFor(static_cast<int64_t>(n), [&](int64_t i) {
      task(static_cast<size_t>(i));
      if (ThreadPool::CurrentParty() != 0) on_workers.fetch_add(1);
    });
    if (node_tasks) {
      result_.tasks_spawned += static_cast<int64_t>(n);
      result_.tasks_stolen += on_workers.load();
    }
  }

  // One task per node, intra-level only — Prune() below is a genuine
  // barrier (see tane.h).
  void ComputeDependencies() {
    std::vector<std::vector<ConstancyOd>> found(current_.nodes.size());
    RunBatch(found.size(), /*node_tasks=*/true, [&](size_t i) {
      ProcessNode(&current_.nodes[i], &found[i]);
    });
    // Merge in node order: deterministic FD emission for any thread
    // count (the same discipline as FASTOD's level walk).
    for (const std::vector<ConstancyOd>& f : found) {
      for (const ConstancyOd& fd : f) EmitFd(fd);
    }
  }

  // TANE pruning: delete Cc+-empty nodes; for (super)key nodes, emit the
  // remaining minimal FDs X -> A (A outside X) and delete the node.
  void Prune() {
    Level pruned;
    for (Node& node : current_.nodes) {
      if (node.cc.IsEmpty()) continue;
      const StrippedPartition& partition = cache_.Get(node.set);
      if (partition.IsSuperkey()) {
        AttributeSet outside = node.cc.Minus(node.set);
        for (int a = outside.First(); a >= 0; a = outside.Next(a)) {
          // X -> A is minimal iff A ∈ ∩_{B∈X} Cc+(X ∪ {A} \ {B}).
          bool minimal = true;
          for (int b = node.set.First(); b >= 0 && minimal;
               b = node.set.Next(b)) {
            Node* sibling = current_.Find(node.set.With(a).Without(b));
            if (sibling == nullptr || !sibling->cc.Contains(a)) {
              minimal = false;
            }
          }
          if (minimal) {
            EmitFd(ConstancyOd{node.set, a});
          }
        }
        continue;  // delete key node
      }
      pruned.Add(std::move(node));
    }
    current_ = std::move(pruned);
  }

  Level CalculateNextLevel(int l) {
    Level next;
    struct Pending {
      AttributeSet set;
      AttributeSet parent_a;
      AttributeSet parent_b;
      AttributeSet determined;
      PartitionCache::Derived derived;
    };
    std::vector<Pending> pending;
    std::unordered_map<AttributeSet, std::vector<int32_t>, AttributeSetHash>
        blocks;
    for (int32_t i = 0; i < static_cast<int32_t>(current_.nodes.size());
         ++i) {
      AttributeSet set = current_.nodes[i].set;
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
                [this](int32_t x, int32_t y) {
                  return current_.nodes[x].set < current_.nodes[y].set;
                });
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const AttributeSet a = current_.nodes[members[i]].set;
          const AttributeSet b = current_.nodes[members[j]].set;
          const AttributeSet candidate = a.Union(b);
          // Exact FDs of the l-subsets carry over (Augmentation).
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
          pending.push_back(Pending{candidate, a, b, determined, {}});
        }
      }
    }
    // The derive steps — refinements are the bulk of the join's cost at
    // scale — run as one batch; puts happen afterwards in join order so
    // cache traffic stays identical to the serial walk.
    RunBatch(pending.size(), /*node_tasks=*/false, [&](size_t i) {
      if (TaskFaulted()) return;
      Pending& p = pending[i];
      p.derived =
          cache_.Derive(relation_, p.parent_a, p.parent_b, p.determined);
    });
    if (faulted_.load()) return next;
    for (Pending& p : pending) {
      result_.partitions_reused += p.derived.reused ? 1 : 0;
      cache_.Put(l + 1, p.set, std::move(p.derived.partition));
    }
    return next;
  }

  // The task-boundary fault point, hit by every node and derive task with
  // FASTOD's semantics: "fail" ends the run cancelled (the batch's
  // remaining tasks skip), "throw" surfaces through ParallelFor, and
  // "sleep" perturbs completion order for the determinism stress test.
  bool TaskFaulted() {
    if (faulted_.load()) return true;
    if (!FASTOD_FAULT_POINT("task_graph.task")) return false;
    faulted_.store(true);
    return true;
  }

  void EmitFd(const ConstancyOd& fd) {
    ++result_.num_fds;
    if (options_.sink != nullptr) {
      options_.sink->OnConstancy(fd);
    }
    if (options_.emit_fds) {
      result_.fds.push_back(fd);
    }
  }

  const EncodedRelation& relation_;
  const TaneOptions& options_;
  const std::vector<StrippedPartition>* singletons_;
  AttributeSet full_set_;
  Deadline deadline_;
  std::unique_ptr<ThreadPool> pool_;
  PartitionCache cache_;
  Level previous_;
  Level current_;
  std::atomic<bool> faulted_{false};  // a "fail" fault point tripped
  TaneResult result_;
};

}  // namespace

Tane::Tane(TaneOptions options) : options_(options) {}

TaneResult Tane::Discover(
    const EncodedRelation& relation,
    const std::vector<StrippedPartition>* singletons) const {
  Run run(relation, options_, singletons);
  return run.Execute();
}

Result<TaneResult> Tane::Discover(const Table& table) const {
  Result<EncodedRelation> encoded = EncodedRelation::FromTable(table);
  if (!encoded.ok()) return encoded.status();
  return Discover(*encoded);
}

}  // namespace fastod
