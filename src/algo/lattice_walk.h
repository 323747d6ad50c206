// The level-wise walk of the set-containment lattice (Algorithm 1) that
// FASTOD and TANE share: the levels, level-1 seeding, the apriori join,
// the derive batch, the thread pool, the stop rule, progress and level
// timing. Each engine plugs in a LatticePolicy — its node task, merge and
// prune, and how many levels of partitions it reads — so the policy is
// exactly "the extra cost to capture the additional OD semantics" that
// the paper's Exp-4 measures. The walk's steps and why its output is the
// same at every thread count: docs/ARCHITECTURE.md, "The parallel level
// walk", and docs/CONCURRENCY.md.
#ifndef FASTOD_ALGO_LATTICE_WALK_H_
#define FASTOD_ALGO_LATTICE_WALK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "data/encode.h"
#include "od/attribute_set.h"
#include "partition/partition_cache.h"

namespace fastod {

/// A pair {A,B} with A < B packed into 12 bits (A*64+B): an entry of
/// FASTOD's Cs+(X).
using AttributePair = uint16_t;

struct LatticeNode {
  AttributeSet set;
  AttributeSet cc;                // Cc+(X)
  std::vector<AttributePair> cs;  // Cs+(X), sorted; TANE leaves it empty
  // {A ∈ X : X\A -> A holds exactly}, as far as known: the parents' sets
  // (Augmentation) plus the exact constancy checks at X.
  AttributeSet determined;
  bool partition_reused = false;  // Π*_X shares a parent's partition
};

/// One level's nodes in join order, indexed by attribute set.
struct LatticeLevel {
  std::vector<LatticeNode> nodes;
  std::unordered_map<AttributeSet, int32_t, AttributeSetHash> index;

  const LatticeNode* Find(AttributeSet set) const {
    auto it = index.find(set);
    return it == index.end() ? nullptr : &nodes[it->second];
  }
  void Add(LatticeNode node) {
    index.emplace(node.set, static_cast<int32_t>(nodes.size()));
    nodes.push_back(std::move(node));
  }
};

/// One engine's per-node policy. Every hook but ProcessNode runs on the
/// calling thread.
class LatticePolicy {
 public:
  virtual ~LatticePolicy() = default;

  /// How many levels below a node its task reads partitions from; the
  /// walk keeps exactly those levels cached.
  virtual int CachedLevelsBack() const = 0;

  /// Sizes the outcome slots for the level's `num_nodes` node tasks.
  virtual void StartLevel(int level, size_t num_nodes) = 0;

  /// The node task of node `index`, whose Cc+ the walk has already set
  /// to the intersection of its parents' (Lemma 9). Runs concurrently
  /// with the level's other node tasks: reads only the previous level and
  /// the cache, writes only `*node` and the policy's outcome slot `index`.
  virtual void ProcessNode(int level, size_t index, LatticeNode* node) = 0;

  /// Merges the outcome slots in node order, also after a stop.
  virtual void MergeLevel() = 0;

  /// The prune: whether `node` of the finished level `nodes` takes part
  /// in the next join. May emit results.
  virtual bool KeepNode(int level, const LatticeNode& node,
                        const LatticeLevel& nodes) = 0;

  /// The level ended (or the run stopped inside it) after `seconds`; its
  /// tasks were busy for `occupancy` of the party's time (0 when serial).
  virtual void FinishLevel(double /*seconds*/, double /*occupancy*/) {}
};

/// Limits of one walk, copied from the engine's options.
struct LatticeWalkLimits {
  int num_threads = 1;  // parties, the calling thread included
  int max_level = 0;    // 0 = no cap
  ExecutionControl* control = nullptr;  // cancel, deadline, progress
};

/// The walk's own counters, as named in FastodResult and TaneResult.
struct LatticeWalkStats {
  bool timed_out = false;
  bool cancelled = false;
  int levels_processed = 0;
  int64_t total_nodes = 0;
  int64_t partition_cache_gets = 0;
  int64_t partition_cache_puts = 0;
  int64_t partitions_reused = 0;  // puts that share a parent's partition
  int64_t tasks_spawned = 0;      // node tasks run on a pool
  int64_t tasks_stolen = 0;       // ...of which a pool worker ran
  double seconds = 0.0;

  template <typename EngineResult>
  void CopyTo(EngineResult* result) const {
    result->timed_out = timed_out;
    result->cancelled = cancelled;
    result->levels_processed = levels_processed;
    result->total_nodes = total_nodes;
    result->partition_cache_gets = partition_cache_gets;
    result->partition_cache_puts = partition_cache_puts;
    result->partitions_reused = partitions_reused;
    result->tasks_spawned = tasks_spawned;
    result->tasks_stolen = tasks_stolen;
    result->seconds = seconds;
  }
};

class LatticeWalk {
 public:
  /// `singletons`: prebuilt level-1 partitions (see Fastod::Discover), or
  /// null. `pool_name` names the worker threads. `policy` must outlive
  /// the walk.
  LatticeWalk(const EncodedRelation& relation,
              const std::vector<StrippedPartition>* singletons,
              const LatticeWalkLimits& limits, const char* pool_name,
              LatticePolicy* policy);

  /// Walks the lattice once. The control's passed deadline stops the run
  /// timed_out; its cancel or a "fail" at the `lattice.node` fault point
  /// stops it cancelled. Every node task polls them all first, and the
  /// calling thread again between levels.
  LatticeWalkStats Run();

  /// Level l-1, finished, while level l's node tasks run.
  const LatticeLevel& previous() const { return previous_; }
  const PartitionCache& cache() const { return cache_; }

 private:
  void Seed();
  void ProcessLevel(int level);
  void Prune(int level);
  LatticeLevel Join(int level);
  void RunBatch(size_t n, bool node_tasks,
                const std::function<void(size_t)>& task);
  void FinishLevel(const WallTimer& timer);
  bool StopRequested();
  bool Stopped() const { return timed_out_.load() || cancelled_.load(); }

  const EncodedRelation& relation_;
  const std::vector<StrippedPartition>* singletons_;
  const LatticeWalkLimits limits_;
  LatticePolicy* const policy_;
  std::unique_ptr<ThreadPool> pool_;  // null on a serial run
  PartitionCache cache_;
  // The derive batch's refine buffers, one per party
  // (ThreadPool::CurrentParty), freed with the walk.
  std::vector<RefineScratch> scratch_;
  LatticeLevel previous_;  // level l-1, finished
  LatticeLevel current_;   // level l
  double level_busy_seconds_ = 0.0;  // level l's summed task time
  std::atomic<bool> timed_out_{false};  // latched by StopRequested()
  std::atomic<bool> cancelled_{false};
  LatticeWalkStats stats_;
};

}  // namespace fastod

#endif  // FASTOD_ALGO_LATTICE_WALK_H_
