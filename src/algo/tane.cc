#include "algo/tane.h"

#include <utility>
#include <vector>

#include "algo/lattice_walk.h"
#include "api/od_sink.h"
#include "common/macros.h"

namespace fastod {

namespace {

// TANE's policy on the shared lattice walk: Cc+ and the FD checks per
// node, key-node FD emission as the prune.
class Run final : public LatticePolicy {
 public:
  Run(const EncodedRelation& relation, const TaneOptions& options,
      const std::vector<StrippedPartition>* singletons)
      : options_(options),
        walk_(relation, singletons,
              LatticeWalkLimits{options.num_threads, options.max_level,
                                options.control},
              "fastod-fd", this) {}

  TaneResult Execute() {
    walk_.Run().CopyTo(&result_);
    return std::move(result_);
  }

  // A node task reads Π*_{X\A}, one level down.
  int CachedLevelsBack() const override { return 1; }

  void StartLevel(int, size_t num_nodes) override {
    found_.assign(num_nodes, {});
  }

  // Validates the candidate FDs X\A -> A, A ∈ X ∩ Cc+(X), of one node.
  void ProcessNode(int, size_t index, LatticeNode* node) override {
    const PartitionCache& cache = walk_.cache();
    const StrippedPartition& node_partition = cache.Get(node->set);
    AttributeSet candidates = node->set.Intersect(node->cc);
    for (int a = candidates.First(); a >= 0; a = candidates.Next(a)) {
      const AttributeSet context = node->set.Without(a);
      if (cache.Get(context).Error() == node_partition.Error()) {
        found_[index].push_back(ConstancyOd{context, a});
        node->determined = node->determined.With(a);
        node->cc = node->cc.Without(a);
        node->cc = node->cc.Intersect(node->set);
      }
    }
  }

  void MergeLevel() override {
    for (const std::vector<ConstancyOd>& f : found_) {
      for (const ConstancyOd& fd : f) EmitFd(fd);
    }
    found_.clear();
  }

  // TANE pruning: delete Cc+-empty nodes; for (super)key nodes, emit the
  // remaining minimal FDs X -> A (A outside X) and delete the node.
  bool KeepNode(int, const LatticeNode& node,
                const LatticeLevel& nodes) override {
    if (node.cc.IsEmpty()) return false;
    if (!walk_.cache().Get(node.set).IsSuperkey()) return true;
    AttributeSet outside = node.cc.Minus(node.set);
    for (int a = outside.First(); a >= 0; a = outside.Next(a)) {
      // X -> A is minimal iff A ∈ ∩_{B∈X} Cc+(X ∪ {A} \ {B}).
      bool minimal = true;
      for (int b = node.set.First(); b >= 0 && minimal;
           b = node.set.Next(b)) {
        const LatticeNode* sibling = nodes.Find(node.set.With(a).Without(b));
        if (sibling == nullptr || !sibling->cc.Contains(a)) minimal = false;
      }
      if (minimal) EmitFd(ConstancyOd{node.set, a});
    }
    return false;
  }

 private:
  void EmitFd(const ConstancyOd& fd) {
    ++result_.num_fds;
    if (options_.sink != nullptr) options_.sink->OnConstancy(fd);
    if (options_.emit_fds) result_.fds.push_back(fd);
  }

  const TaneOptions& options_;
  std::vector<std::vector<ConstancyOd>> found_;  // per node of the level
  TaneResult result_;
  LatticeWalk walk_;
};

}  // namespace

Tane::Tane(TaneOptions options) : options_(options) {}

TaneResult Tane::Discover(
    const EncodedRelation& relation,
    const std::vector<StrippedPartition>* singletons) const {
  Run run(relation, options_, singletons);
  return run.Execute();
}

}  // namespace fastod
