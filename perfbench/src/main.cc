// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload flight-50k|serve-mix
//                    --seed N --seconds S --trace 0|1
//                    [--commit SHA] [--out-dir DIR]
//
// perfbench/run.py builds this binary and forwards its output; the last
// line of standard output is the JSON result. Exit status 2 means the
// arguments or the build were refused, 1 that nothing could be measured.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace {

/// Why this binary must not report timings, or "" when it may: numbers
/// from an unoptimized or instrumented build would be compared with
/// optimized ones.
std::string BuildRefusal() {
#if !defined(NDEBUG)
  return "a build with assertions enabled (Debug)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#else
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (!sanitize.empty()) return "a sanitizer build (" + sanitize + ")";
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + type + "'";
  }
  return "";
#endif
}

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "flight-50k|serve-mix --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--out-dir DIR]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 == 0) return Usage("every flag takes one value");
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");

  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report from %s\n",
                 refusal.c_str());
    return 2;
  }

  perfbench::RunResult result;
  if (args.workload == "flight-50k") {
    perfbench::RunFlight50k(args, &result);
  } else if (args.workload == "serve-mix") {
    perfbench::RunServeMix(args, &result);
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }
  return result.Print(args) ? 0 : 1;
}
