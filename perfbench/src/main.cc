// perfbench_harness: runs one workload once and prints its report.
//
//   perfbench_harness --workload serve-hot --seed 1 --seconds 10 --trace 0
//       --sparsedet build/repo/src/cli/sparsedet [--setup-only 1]
//       [--spans spans.jsonl]
//
// Output: a READY line when set-up is done, "# " report lines, a "HOST"
// line with host and build facts, and the result as the last line:
// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
// perfbench/run.py drives it; see perfbench/README.md.
#include <time.h>

#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common/json.h"
#include "simd/simd.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

// CPU milliseconds of a fixed dependent multiply-add chain: the host's
// speed at the end of the run, printed so a shift in the figures can be
// told apart from a shift in the host.
double ReferenceLoopCpuMs() {
  const auto cpu_ns = [] {
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return now.tv_sec * 1000000000LL + now.tv_nsec;
  };
  const long long start = cpu_ns();
  volatile double x = 1.0;
  for (int i = 0; i < 20000000; ++i) x = x * 1.0000001 + 1e-9;
  return static_cast<double>(cpu_ns() - start) / 1e6;
}

int Usage(const std::string& why) {
  std::cerr << "perfbench_harness: " << why
            << "\nusage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 --sparsedet PATH [--setup-only 0|1] "
               "[--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--setup-only") {
      options.setup_only = value == "1";
    } else if (flag == "--sparsedet") {
      options.sparsedet = value;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  sparsedet::JsonValue host = sparsedet::JsonValue::Object();
  host.Set("nproc", static_cast<std::int64_t>(options.nproc))
      .Set("cpu_model", CpuModel())
      .Set("simd_backend",
           sparsedet::simd::BackendName(sparsedet::simd::ActiveBackend()))
      .Set("compiler", __VERSION__)
      .Set("engine_pool_width", static_cast<std::int64_t>(options.nproc));
  std::cout << "HOST " << host.ToString() << std::endl;

  perfbench::Report report;
  try {
    if (options.workload == "serve-hot") {
      perfbench::RunServeHot(options, report);
    } else if (options.workload == "study-cold") {
      perfbench::RunStudyCold(options, report);
    } else if (options.workload == "optimize-grid") {
      perfbench::RunOptimizeGrid(options, report);
    } else if (options.workload == "adapt-closed-loop") {
      perfbench::RunAdaptClosedLoop(options, report);
    } else {
      return Usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 3;
  }
  if (options.setup_only) return 0;
  std::cout << "# host reference loop: " << ReferenceLoopCpuMs() << " ms CPU"
            << std::endl;
  std::cout << report.ToJson() << std::endl;
  return report.correct() ? 0 : 1;
}
