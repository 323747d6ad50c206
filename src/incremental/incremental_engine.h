// The `incremental` algorithm (api/registry.h): incremental OD discovery
// over a grown dataset version, exposed through the unified Algorithm
// interface so every frontend (service, server, C ABI, Python, CLI) runs
// it like any other engine.
//
// Unlike the from-scratch engines it needs two extra inputs:
//
//   --prior=<json>    the previous run's result report (the stable
//                     fastod/incremental JSON shape of report/report.h) —
//                     the complete minimal OD set of the prior version.
//                     Attribute names are resolved against the loaded
//                     relation's schema. Required.
//   --base-rows=N     rows of the relation prefix the prior was
//                     discovered on. Defaults to -1 = take it from the
//                     bound dataset version (LoadedDataset::base_rows()),
//                     which is correct when the session binds the version
//                     produced by the append that followed the prior run.
//                     A version-1 dataset has no append, so it needs an
//                     explicit --base-rows.
//
// Emission order: revocations first (prior order), then new discoveries
// (lattice level order); surviving ODs are not re-emitted on the stream
// but are included in the result report, which carries the grown
// version's *complete* minimal OD set plus revoked_*_ods arrays — the
// bit-for-bit equivalent of a fresh fastod run on the grown version.
#ifndef FASTOD_INCREMENTAL_INCREMENTAL_ENGINE_H_
#define FASTOD_INCREMENTAL_INCREMENTAL_ENGINE_H_

#include <cstdint>
#include <string>

#include "api/algorithm.h"
#include "incremental/incremental.h"

namespace fastod {

/// Parses a report-shaped prior result ({"constancy_ods": [...],
/// "compatibility_ods": [...]}) against `schema`. Rejects reports with
/// bidirectional or list-shaped dependencies (the incremental engine
/// covers the two canonical shapes), unknown attribute names, and partial
/// reports (stats.timed_out or stats.cancelled true).
Result<PriorOds> ParsePriorReport(const std::string& json,
                                  const Schema& schema);

class IncrementalAlgorithm : public Algorithm {
 public:
  IncrementalAlgorithm();

  const IncrementalResult& result() const { return result_; }
  int64_t base_rows() const { return resolved_base_rows_; }

  std::string ResultText() const override;
  std::string ResultJson() const override;

 protected:
  Status ExecuteInternal() override;

 private:
  std::string prior_json_;
  int64_t base_rows_option_ = -1;
  int64_t resolved_base_rows_ = 0;
  IncrementalResult result_;
  double seconds_ = 0.0;
};

}  // namespace fastod

#endif  // FASTOD_INCREMENTAL_INCREMENTAL_ENGINE_H_
