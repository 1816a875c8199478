// The four workloads and the report they fill in.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       // per-layer run instead of the end-to-end run
  bool setup_only = false;  // stop once set up (setup_s repetitions)
  std::string sparsedet;    // the sparsedet binary, for serve-hot
  std::string spans_path;   // where the traced run writes its spans
  std::size_t nproc = 1;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  // Prints the READY line that ends set-up, with the CPU seconds set-up
  // took: from exec to here, less the benchmark's own input generation.
  void Ready(double setup_cpu_s) const;
  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& text) const;  // one human-readable line
  // Ops attempted and failed; a failed op missed every latency limit.
  void Count(std::int64_t attempted, std::int64_t failed);
  // A failed output check: the run yields no numbers, and every op it
  // attempted counts as failed. `count` is what the check found wrong.
  void FailCheck(const std::string& what, std::int64_t count);

  bool correct() const { return correct_; }
  // {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
  std::string ToJson() const;

 private:
  bool correct_ = true;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::pair<std::string, Metric>> metrics_;
};

// Every per-layer metric with its unit, in report order. A traced run
// reports all of them; a layer a workload never enters reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

void RunServeHot(const Options& options, Report& report);
void RunStudyCold(const Options& options, Report& report);
void RunOptimizeGrid(const Options& options, Report& report);
void RunAdaptClosedLoop(const Options& options, Report& report);

}  // namespace perfbench
