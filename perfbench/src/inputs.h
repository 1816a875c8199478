// Seeded input generation. Every workload's inputs are a pure function of
// the --seed argument; the program under test only ever sees the generated
// request lines and specs.
//
// All scenarios stay inside the paper's validated range on the ONR field:
// N 60-260 nodes, target speed V 4-10 m/s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: small, fast and identical on every platform and compiler.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform();                // [0, 1)
  int Int(int lo, int hi);         // [lo, hi]
  double Exponential(double rate);  // mean 1 / rate
  // An independent stream keyed by (this stream's seed, `stream`).
  Rng Fork(std::uint64_t stream) const;

 private:
  std::uint64_t state_;
};

struct Scenario {
  int nodes = 60;
  double speed = 10.0;
  int window = 20;
  int k = 5;
  int gh = 0;  // 0: default caps
  int g = 0;
};

// serve-hot traffic: a Zipf draw over a hot set of analyze scenarios, with a
// small share of never-seen scenarios.
struct ServeHotParams {
  std::size_t hot_set = 256;
  double zipf_s = 1.0;
  double fresh_share = 0.02;
};

class ServeHotTraffic {
 public:
  ServeHotTraffic(std::uint64_t seed, ServeHotParams params);

  // The hot-set request lines in rank order (warmed before timing).
  const std::vector<std::string>& hot_lines() const { return hot_; }
  // Draws the next request line from `rng`. Fresh lines carry `tag` and a
  // per-stream counter in their id, so each stream's lines depend only on
  // the seed and the stream. Returns the line's index for line().
  std::size_t Next(Rng& rng, const std::string& tag, std::size_t* counter);
  const std::string& line(std::size_t index) const { return lines_[index]; }

 private:
  ServeHotParams params_;
  std::vector<std::string> hot_;
  std::vector<double> zipf_cdf_;
  std::vector<std::string> lines_;  // hot lines first, then fresh lines
};

// study-cold traffic: analyze and k-sweep requests over distinct scenarios,
// half with default caps and half with the Eq. 7/9 caps, plus a share of
// requests that repeat a recent scenario.
struct StudyColdParams {
  std::size_t chunk_lines = 256;   // lines per RunBatch call
  double sweep_share = 0.5;
  double capped_share = 0.5;
  double repeat_share = 0.1;
  std::size_t repeat_window = 1024;  // repeats draw from the last N requests
};

class StudyColdTraffic {
 public:
  StudyColdTraffic(std::uint64_t seed, StudyColdParams params);
  // The next chunk of request lines; chunk i is the same for a given seed.
  std::vector<std::string> NextChunk();

 private:
  StudyColdParams params_;
  Rng rng_;
  std::size_t next_id_ = 0;
  std::vector<std::pair<bool, Scenario>> recent_;  // (sweep, scenario)
};

// optimize-grid: the i-th min-nodes spec over nodes x k x window.
std::string OptimizeSpecJson(std::uint64_t seed, std::size_t index);
// adapt-closed-loop: the i-th closed-loop spec (decaying fleet, per-epoch
// Monte-Carlo validation).
std::string AdaptSpecJson(std::uint64_t seed, std::size_t index);

}  // namespace perfbench
