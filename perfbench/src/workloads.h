// The benchmark's workloads. perfbench/README.md says why each exists
// and defines every metric they report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "bench.h"

namespace perfbench {

/// flight-like 50k x 12: one operation is CSV text -> PutCsvString ->
/// fastod -> ResultJson (the rows axis).
void RunFlight50k(const Args& args, RunResult* out);

/// A closed loop of clients against an in-process DiscoveryServer:
/// streamed fastod/tane sessions, plus writes (a 1% append and an
/// incremental session) as one operation in twenty.
void RunServeMix(const Args& args, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
