#include "algo/lattice_walk.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/fault.h"
#include "common/macros.h"

namespace fastod {

LatticeWalk::LatticeWalk(const EncodedRelation& relation,
                         const std::vector<StrippedPartition>* singletons,
                         const LatticeWalkLimits& limits,
                         const char* pool_name, LatticePolicy* policy)
    : relation_(relation),
      singletons_(singletons),
      limits_(limits),
      policy_(policy),
      pool_(limits.num_threads > 1
                ? std::make_unique<ThreadPool>(limits.num_threads - 1,
                                               pool_name)
                : nullptr),
      scratch_(std::max(1, limits.num_threads)) {}

LatticeWalkStats LatticeWalk::Run() {
  WallTimer total_timer;
  Seed();
  const int m = relation_.NumAttributes();
  for (int l = 1; !current_.nodes.empty(); ++l) {
    if (limits_.max_level > 0 && l > limits_.max_level) break;
    WallTimer level_timer;
    level_busy_seconds_ = 0.0;
    stats_.total_nodes += static_cast<int64_t>(current_.nodes.size());
    ProcessLevel(l);
    if (Stopped()) {
      FinishLevel(level_timer);
      break;
    }
    Prune(l);
    // Skip the join for a level the max_level cap would refuse anyway.
    LatticeLevel next;
    if (limits_.max_level == 0 || l < limits_.max_level) next = Join(l);
    FinishLevel(level_timer);
    stats_.levels_processed = l;
    if (limits_.control != nullptr && m > 0) {
      limits_.control->ReportProgress(static_cast<double>(l) / m);
    }
    previous_ = std::move(current_);
    current_ = std::move(next);
    cache_.EvictBelow(l + 1 - policy_->CachedLevelsBack());
    if (StopRequested()) break;
  }
  stats_.timed_out = timed_out_.load();
  stats_.cancelled = cancelled_.load();
  // Early exits keep the last level's fraction, so pollers never see a
  // stopped run as complete.
  if (limits_.control != nullptr && !Stopped()) {
    limits_.control->ReportProgress(1.0);
  }
  stats_.partition_cache_gets = cache_.gets();
  stats_.partition_cache_puts = cache_.puts();
  stats_.seconds = total_timer.ElapsedSeconds();
  return stats_;
}

// L0 = { {} } with Cc+({}) = R; L1 = the singletons. Prebuilt Π*_{A} are
// borrowed: the dataset owning them outlives the Discover() call.
void LatticeWalk::Seed() {
  const int m = relation_.NumAttributes();
  FASTOD_DCHECK(singletons_ == nullptr ||
                static_cast<int>(singletons_->size()) == m);
  LatticeNode root;
  root.cc = AttributeSet::FullSet(m);
  previous_.Add(std::move(root));
  cache_.Put(0, AttributeSet::Empty(),
             StrippedPartition::Universe(relation_.NumRows()));
  for (int a = 0; a < m; ++a) {
    LatticeNode node;
    node.set = AttributeSet::Single(a);
    current_.Add(std::move(node));
    cache_.Put(1, AttributeSet::Single(a),
               singletons_ != nullptr
                   ? BorrowPartition((*singletons_)[a])
                   : std::make_shared<const StrippedPartition>(
                         StrippedPartition::ForAttribute(relation_.codes(a))));
  }
}

void LatticeWalk::ProcessLevel(int l) {
  policy_->StartLevel(l, current_.nodes.size());
  RunBatch(current_.nodes.size(), /*node_tasks=*/true, [&](size_t i) {
    if (StopRequested()) return;
    // "fail" ends the run cancelled, like a control stop; "throw" surfaces
    // through ParallelFor; "sleep" reorders completions for stress tests.
    if (FASTOD_FAULT_POINT("lattice.node")) {
      cancelled_.store(true);
      return;
    }
    LatticeNode* node = &current_.nodes[i];
    // Cc+(X) = ∩_{A∈X} Cc+(X\A)  (Lemma 9).
    node->cc = AttributeSet::FullSet(relation_.NumAttributes());
    for (int a = node->set.First(); a >= 0; a = node->set.Next(a)) {
      const LatticeNode* parent = previous_.Find(node->set.Without(a));
      FASTOD_DCHECK(parent != nullptr);
      node->cc = node->cc.Intersect(parent->cc);
    }
    policy_->ProcessNode(l, i, node);
  });
  policy_->MergeLevel();
}

// Every keep decision sees the whole finished level before any node moves.
void LatticeWalk::Prune(int l) {
  std::vector<bool> keep;
  for (const LatticeNode& node : current_.nodes) {
    keep.push_back(policy_->KeepNode(l, node, current_));
  }
  LatticeLevel kept;
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i]) kept.Add(std::move(current_.nodes[i]));
  }
  current_ = std::move(kept);
}

// Algorithm 2: nodes that share their set minus its highest attribute
// form a block, and every pair in a block whose union has all its
// l-subsets live becomes a node of level l+1. Blocks go in key order and
// members in set order, so the join order is deterministic. Each child's
// partition is then derived from its two generating parents (Section
// 4.6) in one batch that only reads the cache; the puts follow on this
// thread in join order, so no task waits on the cache's exclusive lock.
LatticeLevel LatticeWalk::Join(int l) {
  const auto block = [](AttributeSet set) {
    return AttributeSet(set.bits() ^ std::bit_floor(set.bits()));
  };
  std::vector<AttributeSet> sets;
  for (const LatticeNode& node : current_.nodes) sets.push_back(node.set);
  std::sort(sets.begin(), sets.end(), [&](AttributeSet x, AttributeSet y) {
    return std::pair(block(x), x) < std::pair(block(y), y);
  });
  LatticeLevel next;
  std::vector<std::pair<AttributeSet, AttributeSet>> parents;
  for (size_t begin = 0, end = 0; begin < sets.size(); begin = end) {
    while (end < sets.size() && block(sets[end]) == block(sets[begin])) ++end;
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = i + 1; j < end; ++j) {
        LatticeNode node;
        node.set = sets[i].Union(sets[j]);
        // The l-subsets' exact FDs carry over (Augmentation).
        bool all_present = true;
        for (int x = node.set.First(); x >= 0 && all_present;
             x = node.set.Next(x)) {
          const LatticeNode* parent = current_.Find(node.set.Without(x));
          all_present = parent != nullptr;
          if (all_present) {
            node.determined = node.determined.Union(parent->determined);
          }
        }
        if (!all_present) continue;
        next.Add(std::move(node));
        parents.emplace_back(sets[i], sets[j]);
      }
    }
  }
  std::vector<PartitionCache::Derived> derived(parents.size());
  RunBatch(derived.size(), /*node_tasks=*/false, [&](size_t i) {
    derived[i] = cache_.Derive(relation_, parents[i].first, parents[i].second,
                               next.nodes[i].determined,
                               &scratch_[ThreadPool::CurrentParty()]);
  });
  for (size_t i = 0; i < derived.size(); ++i) {
    next.nodes[i].partition_reused = derived[i].reused;
    stats_.partitions_reused += derived[i].reused ? 1 : 0;
    cache_.Put(l + 1, next.nodes[i].set, std::move(derived[i].partition));
  }
  return next;
}

// Runs task(i) for every i in [0, n): inline in index order on a serial
// run, else on the pool, adding the tasks' run time to the level's busy
// seconds. Node batches also feed the tasks_* counters.
void LatticeWalk::RunBatch(size_t n, bool node_tasks,
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
    stats_.tasks_spawned += static_cast<int64_t>(n);
    stats_.tasks_stolen += on_workers.load();
  }
}

void LatticeWalk::FinishLevel(const WallTimer& timer) {
  const double seconds = timer.ElapsedSeconds();
  double occupancy = 0.0;
  if (pool_ != nullptr && seconds > 0.0) {
    const int party = pool_->num_threads() + 1;
    occupancy = std::min(1.0, level_busy_seconds_ / (seconds * party));
  }
  policy_->FinishLevel(seconds, occupancy);
}

// Latches the control's cancel as cancelled and its passed deadline as
// timed_out; Algorithm::Execute turns the latter into a
// kDeadlineExceeded error afterwards.
bool LatticeWalk::StopRequested() {
  if (Stopped()) return true;
  if (limits_.control == nullptr) return false;
  if (limits_.control->CancelRequested()) {
    cancelled_.store(true);
    return true;
  }
  if (limits_.control->DeadlineExceeded()) {
    timed_out_.store(true);
    return true;
  }
  return false;
}

}  // namespace fastod
