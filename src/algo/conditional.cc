#include "algo/conditional.h"

#include <algorithm>

#include "common/macros.h"
#include "data/schema.h"
#include "partition/stripped_partition.h"
#include "validate/brute_force.h"
#include "validate/od_validator.h"

namespace fastod {

namespace {

AttributeSet OdContext(const CanonicalOd& od) {
  if (std::holds_alternative<ConstancyOd>(od)) {
    return std::get<ConstancyOd>(od).context;
  }
  return std::get<CompatibilityOd>(od).context;
}

AttributeSet OdAttributes(const CanonicalOd& od) {
  if (std::holds_alternative<ConstancyOd>(od)) {
    const ConstancyOd& c = std::get<ConstancyOd>(od);
    return c.context.With(c.attribute);
  }
  const CompatibilityOd& c = std::get<CompatibilityOd>(od);
  return c.context.With(c.a).With(c.b);
}

// Does the OD's shape hold within this single equivalence class?
bool ClassSatisfies(const EncodedRelation& rel, const CanonicalOd& od,
                    std::span<const int32_t> cls,
                    std::vector<int32_t>* scratch) {
  if (std::holds_alternative<ConstancyOd>(od)) {
    const CodeColumn& ranks =
        rel.codes(std::get<ConstancyOd>(od).attribute);
    for (int32_t t : cls) {
      if (ranks[t] != ranks[cls[0]]) return false;
    }
    return true;
  }
  const CompatibilityOd& c = std::get<CompatibilityOd>(od);
  const CodeColumn& ranks_a = rel.codes(c.a);
  const CodeColumn& ranks_b = rel.codes(c.b);
  scratch->assign(cls.begin(), cls.end());
  std::sort(scratch->begin(), scratch->end(),
            [&ranks_a](int32_t s, int32_t t) {
              return ranks_a[s] < ranks_a[t];
            });
  int32_t run_max_b = -1;
  size_t i = 0;
  while (i < scratch->size()) {
    const int32_t group_a = ranks_a[(*scratch)[i]];
    int32_t group_min = ranks_b[(*scratch)[i]];
    int32_t group_max = group_min;
    size_t j = i + 1;
    while (j < scratch->size() && ranks_a[(*scratch)[j]] == group_a) {
      group_min = std::min(group_min, ranks_b[(*scratch)[j]]);
      group_max = std::max(group_max, ranks_b[(*scratch)[j]]);
      ++j;
    }
    if (group_min < run_max_b) return false;
    run_max_b = std::max(run_max_b, group_max);
    i = j;
  }
  return true;
}

}  // namespace

std::string ConditionalOd::ToString(const Schema& schema) const {
  std::string out = "(";
  out += schema.name(condition_attribute);
  out += " in {";
  for (size_t i = 0; i < binding_ranks.size(); ++i) {
    if (i > 0) out += ",";
    out += "#";
    out += std::to_string(binding_ranks[i]);
  }
  char support_buf[32];
  std::snprintf(support_buf, sizeof(support_buf), "%.0f%%",
                support * 100.0);
  out += "}) => ";
  out += CanonicalOdToString(od, schema);
  out += "  [support ";
  out += support_buf;
  out += "]";
  return out;
}

ConditionalOdFinder::ConditionalOdFinder(
    const EncodedRelation* relation,
    const std::vector<StrippedPartition>* singletons)
    : relation_(relation), singletons_(singletons) {
  FASTOD_CHECK(relation_ != nullptr);
}

std::optional<ConditionalOd> ConditionalOdFinder::Refine(
    const CanonicalOd& od, int condition_attribute,
    const ConditionalOdOptions& options) {
  const EncodedRelation& rel = *relation_;
  if (OdAttributes(od).Contains(condition_attribute)) return std::nullopt;
  if (rel.NumRows() == 0) return std::nullopt;

  // Build Π over context ∪ {C}. Class order does not matter; we tally a
  // verdict and a tuple count per C-binding.
  AttributeSet refined_context = OdContext(od).With(condition_attribute);
  std::vector<const CodeColumn*> columns;
  for (int a = refined_context.First(); a >= 0;
       a = refined_context.Next(a)) {
    columns.push_back(&rel.codes(a));
  }
  StrippedPartition partition =
      StrippedPartition::FromCodeColumns(columns, rel.NumRows());

  const CodeColumn& cond_ranks = rel.codes(condition_attribute);
  const int32_t num_bindings = rel.NumDistinct(condition_attribute);
  std::vector<uint8_t> binding_ok(num_bindings, 1);
  std::vector<int32_t> scratch;
  for (int32_t c = 0; c < partition.NumClasses(); ++c) {
    auto cls = partition.Class(c);
    const int32_t binding = cond_ranks[cls[0]];  // constant within class
    if (!binding_ok[binding]) continue;
    if (!ClassSatisfies(rel, od, cls, &scratch)) binding_ok[binding] = 0;
  }

  // Support = covered tuples / all tuples.
  std::vector<int64_t> binding_count(num_bindings, 0);
  for (int64_t t = 0; t < rel.NumRows(); ++t) ++binding_count[cond_ranks[t]];
  ConditionalOd result;
  result.condition_attribute = condition_attribute;
  result.od = od;
  int64_t covered = 0;
  for (int32_t v = 0; v < num_bindings; ++v) {
    if (binding_ok[v]) {
      result.binding_ranks.push_back(v);
      covered += binding_count[v];
    }
  }
  result.support =
      static_cast<double>(covered) / static_cast<double>(rel.NumRows());
  if (result.support < options.min_support) return std::nullopt;
  return result;
}

std::vector<ConditionalOd> ConditionalOdFinder::DiscoverConditional(
    const ConditionalOdOptions& options) {
  const EncodedRelation& rel = *relation_;
  const int m = rel.NumAttributes();
  OdValidator validator(relation_, singletons_);
  std::vector<ConditionalOd> results;
  cancelled_ = false;
  // m(m-1)/2 compatibility pairs plus m(m-1) FDs.
  const double num_candidates = 1.5 * m * (m - 1);
  int64_t considered = 0;

  auto consider = [&](const CanonicalOd& od) {
    if (cancelled_) return;
    if (options.control != nullptr) {
      options.control->ReportProgress(considered++ / num_candidates);
      if (options.control->StopRequested()) {
        cancelled_ = true;
        return;
      }
    }
    if (validator.Holds(od)) return;  // unconditional; nothing to refine
    for (int c = 0; c < m; ++c) {
      if (OdAttributes(od).Contains(c)) continue;
      if (rel.NumDistinct(c) > options.max_condition_cardinality) continue;
      if (rel.NumDistinct(c) < 2) continue;  // constants bind nothing
      std::optional<ConditionalOd> refined = Refine(od, c, options);
      // Require a *strict* portion: if every binding passes, the OD would
      // hold within every {C}-augmented class — interesting, but it is
      // the ordinary OD {C} ∪ context, not a conditional one.
      if (refined.has_value() &&
          static_cast<int32_t>(refined->binding_ranks.size()) <
              rel.NumDistinct(c)) {
        results.push_back(std::move(*refined));
      }
    }
  };

  for (int a = 0; a < m; ++a) {
    for (int b = a + 1; b < m; ++b) {
      consider(CompatibilityOd(AttributeSet::Empty(), a, b));
    }
  }
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      if (a != b) consider(ConstancyOd{AttributeSet::Single(a), b});
    }
  }

  std::stable_sort(results.begin(), results.end(),
                   [](const ConditionalOd& x, const ConditionalOd& y) {
                     return x.support > y.support;
                   });
  if (static_cast<int64_t>(results.size()) > options.max_results) {
    results.resize(options.max_results);
  }
  if (options.control != nullptr && !cancelled_) {
    options.control->ReportProgress(1.0);
  }
  return results;
}

}  // namespace fastod
