#include "partition/sorted_partition.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>

namespace fastod {
namespace {

// Sorts `tuples` (one context class, or a sample of one) by A-rank and
// sweeps A-groups in ascending order. Within a group (equal A) tuples do
// not constrain each other; across groups every earlier B-rank must be
// <= every later B-rank. True iff some pair of `tuples` swaps.
bool SortedSweepFindsSwap(std::span<int32_t> tuples,
                          const CodeColumn& ranks_a,
                          const CodeColumn& ranks_b, int32_t flip_base) {
  std::sort(tuples.begin(), tuples.end(), [&ranks_a](int32_t s, int32_t t) {
    return ranks_a[s] < ranks_a[t];
  });
  auto rank_b = [&](int32_t t) {
    return flip_base < 0 ? ranks_b[t] : flip_base - ranks_b[t];
  };
  int32_t run_max_b = -1;
  size_t i = 0;
  while (i < tuples.size()) {
    const int32_t group_a = ranks_a[tuples[i]];
    int32_t group_min_b = rank_b(tuples[i]);
    int32_t group_max_b = group_min_b;
    size_t j = i + 1;
    while (j < tuples.size() && ranks_a[tuples[j]] == group_a) {
      group_min_b = std::min(group_min_b, rank_b(tuples[j]));
      group_max_b = std::max(group_max_b, rank_b(tuples[j]));
      ++j;
    }
    if (group_min_b < run_max_b) return true;
    run_max_b = std::max(run_max_b, group_max_b);
    i = j;
  }
  return false;
}

}  // namespace

SortedPartitions::SortedPartitions(const EncodedRelation& relation) {
  const int64_t n = relation.NumRows();
  orders_.resize(relation.NumAttributes());
  for (int a = 0; a < relation.NumAttributes(); ++a) {
    const CodeColumn& codes = relation.codes(a);
    const int32_t num_distinct = relation.NumDistinct(a);
    const uint32_t* data = codes.data();
    // Counting sort: stable, so ties stay in ascending tuple order.
    std::vector<int32_t> counts(num_distinct + 1, 0);
    for (int64_t t = 0; t < n; ++t) ++counts[data[t] + 1];
    for (int32_t v = 0; v < num_distinct; ++v) counts[v + 1] += counts[v];
    orders_[a].resize(n);
    for (int64_t t = 0; t < n; ++t) {
      orders_[a][counts[data[t]]++] = static_cast<int32_t>(t);
    }
  }
}

SwapChecker::SwapChecker(const EncodedRelation* relation,
                         const SortedPartitions* sorted_partitions,
                         SwapCheckMethod method)
    : relation_(relation), sorted_(sorted_partitions), method_(method) {
  FASTOD_CHECK(relation_ != nullptr);
}

bool SwapChecker::IsOrderCompatible(const StrippedPartition& context, int a,
                                    int b) {
  return IsOrderCompatibleDirected(context, a, b, /*opposite=*/false);
}

bool SwapChecker::IsOrderCompatibleDirected(const StrippedPartition& context,
                                            int a, int b, bool opposite) {
  const int32_t flip_base =
      opposite ? relation_->NumDistinct(b) - 1 : int32_t{-1};
  SwapCheckMethod method = method_;
  if (method == SwapCheckMethod::kAuto) {
    switch (CheckSample(context, a, b, flip_base)) {
      case SampleVerdict::kSwap:
        ++num_sample_refutes_;
        return false;
      case SampleVerdict::kNoSwapComplete:
        return true;
      case SampleVerdict::kNoSwapPartial:
        break;
    }
    // τ-based scans all n tuples once; sort-based pays Σ c·log c over
    // context classes. Prefer τ when the context still covers most of the
    // relation and τ orders are available.
    bool tau_viable = sorted_ != nullptr;
    method = (tau_viable &&
              context.NumElements() * 2 >= relation_->NumRows())
                 ? SwapCheckMethod::kTauBased
                 : SwapCheckMethod::kSortBased;
  }
  if (method == SwapCheckMethod::kTauBased && sorted_ != nullptr) {
    return CheckTauBased(context, a, b, flip_base);
  }
  return CheckSortBased(context, a, b, flip_base);
}

SwapChecker::SampleVerdict SwapChecker::CheckSample(
    const StrippedPartition& context, int a, int b, int32_t flip_base) const {
  const CodeColumn& ranks_a = relation_->codes(a);
  const CodeColumn& ranks_b = relation_->codes(b);
  std::array<int32_t, kSampleTuples> sample{};
  int64_t taken = 0;
  for (int32_t c = 0; c < context.NumClasses() && taken < kSampleTuples;
       ++c) {
    auto cls = context.Class(c);
    const int64_t size = static_cast<int64_t>(cls.size());
    const int64_t k =
        std::min({size, int64_t{kSamplePerClass}, kSampleTuples - taken});
    // Strided positions floor(i·size/k) are strictly increasing for
    // k <= size, so the k members are distinct and spread over the class.
    for (int64_t i = 0; i < k; ++i) sample[taken + i] = cls[i * size / k];
    if (SortedSweepFindsSwap(std::span<int32_t>(sample.data() + taken, k),
                             ranks_a, ranks_b, flip_base)) {
      return SampleVerdict::kSwap;
    }
    taken += k;
  }
  return taken == context.NumElements() ? SampleVerdict::kNoSwapComplete
                                        : SampleVerdict::kNoSwapPartial;
}

bool SwapChecker::CheckSortBased(const StrippedPartition& context, int a,
                                 int b, int32_t flip_base) {
  ++num_sort_checks_;
  const CodeColumn& ranks_a = relation_->codes(a);
  const CodeColumn& ranks_b = relation_->codes(b);
  for (int32_t c = 0; c < context.NumClasses(); ++c) {
    auto cls = context.Class(c);
    class_buffer_.assign(cls.begin(), cls.end());
    if (SortedSweepFindsSwap(class_buffer_, ranks_a, ranks_b, flip_base)) {
      return false;
    }
  }
  return true;
}

bool SwapChecker::CheckTauBased(const StrippedPartition& context, int a,
                                int b, int32_t flip_base) {
  ++num_tau_checks_;
  const CodeColumn& ranks_a = relation_->codes(a);
  const CodeColumn& ranks_b = relation_->codes(b);
  context.FillClassIndex(&class_of_);
  tau_states_.assign(context.NumClasses(), TauState{});
  // One scan over τ_a: tuples arrive in global ascending A order, hence in
  // ascending A order within every context class as well ("hashing into
  // sorted buckets", Table 2 of the paper). The sweep state advances per
  // class.
  for (int32_t t : sorted_->TupleOrder(a)) {
    const int32_t cls = class_of_[t];
    if (cls < 0) continue;  // stripped singleton
    TauState& st = tau_states_[cls];
    const int32_t ra = ranks_a[t];
    const int32_t rb = flip_base < 0 ? ranks_b[t] : flip_base - ranks_b[t];
    if (st.cur_a != ra) {
      // Close the previous A-group for this class.
      st.run_max_b = std::max(st.run_max_b, st.group_max_b);
      st.cur_a = ra;
      st.group_max_b = rb;
    } else {
      st.group_max_b = std::max(st.group_max_b, rb);
    }
    if (rb < st.run_max_b) return false;  // swap
  }
  return true;
}

}  // namespace fastod
