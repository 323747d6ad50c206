// Adapters exposing every discovery engine in src/algo/ through the
// unified Algorithm interface (api/algorithm.h).
//
// Each adapter is a thin shim: it registers typed options that write
// straight into the engine's native options struct, forwards the attached
// OdSink / ExecutionControl, runs the legacy entry point in
// ExecuteInternal(), and renders through report/report.h. The engines'
// direct APIs (Fastod::Discover etc.) remain available and authoritative;
// tests/api_test.cc pins the adapters to them bit-for-bit.
//
// Registered names (api/registry.h):
//   fastod       complete minimal canonical-OD discovery (Section 4)
//   tane         FD-only baseline (Exp-4 comparator)
//   order        list-based ORDER baseline (Exp-3 comparator)
//   brute-force  exhaustive oracle (<= 16 attributes)
//   approximate  FASTOD under g3 threshold validity (max-error > 0)
//   conditional  conditional ODs over attribute bindings (Section 7)
//   incremental  delta re-validation + targeted re-search over a grown
//                dataset version (incremental/incremental_engine.h)
#ifndef FASTOD_API_ENGINES_H_
#define FASTOD_API_ENGINES_H_

#include <string>
#include <vector>

#include "algo/brute_force_discovery.h"
#include "algo/conditional.h"
#include "algo/fastod.h"
#include "algo/order.h"
#include "algo/tane.h"
#include "api/algorithm.h"

namespace fastod {

class AlgorithmRegistry;

/// Populates `registry` with the six engine adapters above. Idempotent
/// per registry (names are replaced, not duplicated).
void RegisterBuiltinAlgorithms(AlgorithmRegistry* registry);

class FastodAlgorithm : public Algorithm {
 public:
  FastodAlgorithm();

  const FastodOptions& discovery_options() const { return opts_; }
  const FastodResult& result() const { return result_; }

  std::string ResultText() const override;
  std::string ResultJson() const override;

 protected:
  /// `defaults` seeds the option registry, so subclasses (approximate)
  /// surface their own defaults in DescribeOptions().
  FastodAlgorithm(std::string name, std::string description,
                  FastodOptions defaults);
  Status ExecuteInternal() override;

  FastodOptions opts_;
  /// Staging for the swap-method enum option; applied to
  /// opts_.swap_method at Execute time.
  int swap_method_choice_;
  FastodResult result_;
};

/// FASTOD under g3 threshold validity: identical machinery, but an OD is
/// accepted when its removal error is at most --max-error (default 0.01
/// rather than exact 0).
class ApproximateAlgorithm : public FastodAlgorithm {
 public:
  ApproximateAlgorithm();

  std::string ResultText() const override;
  std::string ResultJson() const override;
};

class TaneAlgorithm : public Algorithm {
 public:
  TaneAlgorithm();

  const TaneResult& result() const { return result_; }

  std::string ResultText() const override;
  std::string ResultJson() const override;

 protected:
  Status ExecuteInternal() override;

 private:
  TaneOptions opts_;
  TaneResult result_;
};

class OrderAlgorithm : public Algorithm {
 public:
  OrderAlgorithm();

  const OrderResult& result() const { return result_; }

  std::string ResultText() const override;
  std::string ResultJson() const override;

 protected:
  Status ExecuteInternal() override;

 private:
  OrderOptions opts_;
  OrderResult result_;
};

/// The exhaustive oracle; refuses relations with more than 16 attributes.
class BruteForceAlgorithm : public Algorithm {
 public:
  BruteForceAlgorithm();

  const BruteForceDiscoveryResult& result() const { return result_; }

  std::string ResultText() const override;
  std::string ResultJson() const override;

 protected:
  Status ExecuteInternal() override;

 private:
  /// The oracle result reshaped for the shared FASTOD renderers.
  FastodResult AsFastodResult() const;

  double max_error_ = 0.0;
  bool bidirectional_ = false;
  BruteForceDiscoveryResult result_;
  double seconds_ = 0.0;
};

class ConditionalAlgorithm : public Algorithm {
 public:
  ConditionalAlgorithm();

  const std::vector<ConditionalOd>& result() const { return result_; }

  std::string ResultText() const override;
  std::string ResultJson() const override;

 protected:
  Status ExecuteInternal() override;

 private:
  ConditionalOdOptions opts_;
  /// Staging for the int32_t ConditionalOdOptions field; narrowed at
  /// Execute time.
  int64_t max_condition_cardinality_;
  std::vector<ConditionalOd> result_;
  bool cancelled_ = false;
  double seconds_ = 0.0;
};

}  // namespace fastod

#endif  // FASTOD_API_ENGINES_H_
