#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <tuple>

namespace perfbench {
namespace {

// A decimal with at most `decimals` places, trailing zeros dropped.
std::string Decimal(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  std::string text(buffer);
  if (text.find('.') != std::string::npos) {
    while (text.back() == '0') text.pop_back();
    if (text.back() == '.') text.pop_back();
  }
  return text;
}

// A paper-range scenario: N 60-260, window 10-30 periods, k 2-8 and V
// 4-10 m/s, with two-decimal speeds for hot scenarios and exactly three for
// the others, so no other scenario ever repeats a hot one.
Scenario DrawScenario(Rng& rng, bool hot) {
  Scenario s;
  s.nodes = rng.Int(60, 260);
  if (hot) {
    s.speed = rng.Int(400, 1000) / 100.0;
  } else {
    int milli = rng.Int(4000, 10000);
    if (milli % 10 == 0) milli += milli < 10000 ? 1 : -1;
    s.speed = milli / 1000.0;
  }
  s.window = rng.Int(10, 30);
  s.k = rng.Int(2, 8);
  return s;
}

std::string ParamsJson(const Scenario& s) {
  std::string json = "\"params\":{\"nodes\":" + std::to_string(s.nodes) +
                     ",\"speed\":" + Decimal(s.speed, 3) +
                     ",\"window\":" + std::to_string(s.window) +
                     ",\"k\":" + std::to_string(s.k) + "}";
  if (s.gh > 0) {
    json += ",\"options\":{\"gh\":" + std::to_string(s.gh) +
            ",\"g\":" + std::to_string(s.g) + "}";
  }
  return json;
}

std::string AnalyzeLine(const std::string& id, const Scenario& s) {
  return "{\"id\":\"" + id + "\",\"op\":\"analyze\"," + ParamsJson(s) + "}";
}

std::string SweepKLine(const std::string& id, const Scenario& s) {
  return "{\"id\":\"" + id + "\",\"op\":\"sweep\"," + ParamsJson(s) +
         ",\"sweep\":{\"param\":\"k\",\"from\":2,\"to\":7,\"step\":1}}";
}

}  // namespace

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int Rng::Int(int lo, int hi) {
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<int>(Next() % span);
}

double Rng::Exponential(double rate) {
  return -std::log1p(-Uniform()) / rate;
}

Rng Rng::Fork(std::uint64_t stream) const {
  Rng mixer(state_ ^ (0xD1B54A32D192ED03ULL * (stream + 1)));
  return Rng(mixer.Next());
}

ServeHotTraffic::ServeHotTraffic(std::uint64_t seed, ServeHotParams params)
    : params_(params) {
  Rng rng = Rng(seed).Fork(1);
  double mass = 0.0;
  for (std::size_t rank = 0; rank < params_.hot_set; ++rank) {
    hot_.push_back(
        AnalyzeLine("h" + std::to_string(rank), DrawScenario(rng, true)));
    mass += 1.0 / std::pow(static_cast<double>(rank + 1), params_.zipf_s);
    zipf_cdf_.push_back(mass);
  }
  for (double& c : zipf_cdf_) c /= mass;
  lines_ = hot_;
}

std::size_t ServeHotTraffic::Next(Rng& rng, const std::string& tag,
                                  std::size_t* counter) {
  if (rng.Uniform() < params_.fresh_share) {
    lines_.push_back(AnalyzeLine(
        "f" + tag + "." + std::to_string((*counter)++), DrawScenario(rng, false)));
    return lines_.size() - 1;
  }
  const double u = rng.Uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - zipf_cdf_.begin()),
                               hot_.size() - 1);
}

StudyColdTraffic::StudyColdTraffic(std::uint64_t seed, StudyColdParams params)
    : params_(params), rng_(Rng(seed).Fork(2)) {}

std::vector<std::string> StudyColdTraffic::NextChunk() {
  std::vector<std::string> lines;
  lines.reserve(params_.chunk_lines);
  while (lines.size() < params_.chunk_lines) {
    bool sweep = false;
    Scenario s;
    if (!recent_.empty() && rng_.Uniform() < params_.repeat_share) {
      const std::size_t back = static_cast<std::size_t>(
          rng_.Next() % std::min(recent_.size(), params_.repeat_window));
      std::tie(sweep, s) = recent_[recent_.size() - 1 - back];
    } else {
      sweep = rng_.Uniform() < params_.sweep_share;
      s = DrawScenario(rng_, false);
      if (rng_.Uniform() < params_.capped_share) {
        s.gh = rng_.Int(4, 6);
        s.g = rng_.Int(2, 4);
      }
    }
    const std::string id = "c" + std::to_string(next_id_++);
    lines.push_back(sweep ? SweepKLine(id, s) : AnalyzeLine(id, s));
    recent_.emplace_back(sweep, s);
    if (recent_.size() > 2 * params_.repeat_window) {
      recent_.erase(recent_.begin(),
                    recent_.begin() + static_cast<std::ptrdiff_t>(
                                          params_.repeat_window));
    }
  }
  return lines;
}

std::string OptimizeSpecJson(std::uint64_t seed, std::size_t index) {
  Rng rng = Rng(seed).Fork(3).Fork(index);
  const double min_detection = 0.80 + 0.01 * rng.Int(0, 15);
  const double speed = rng.Int(4000, 10000) / 1000.0;
  return "{\"objective\":\"min_nodes\",\"constraints\":{\"min_detection\":" +
         Decimal(min_detection, 2) + "},\"params\":{\"speed\":" +
         Decimal(speed, 3) +
         "},\"search\":{\"nodes\":{\"from\":60,\"to\":260,\"step\":10},"
         "\"k\":{\"from\":2,\"to\":8},"
         "\"window\":{\"from\":10,\"to\":30,\"step\":5}},"
         "\"refine_rounds\":2}";
}

std::string AdaptSpecJson(std::uint64_t seed, std::size_t index) {
  // N and the mean lifetime walk their ranges along low-discrepancy
  // sequences from seeded starting points, so the specs of every run cover
  // both ranges evenly: the seed moves the inputs, not the mix of work.
  Rng base = Rng(seed).Fork(4);
  const double n_start = base.Uniform();
  const double life_start = base.Uniform();
  const double i = static_cast<double>(index);
  const int nodes =
      110 + static_cast<int>(51.0 * std::fmod(n_start + 0.6180339887 * i, 1.0));
  const int lifetime_s =
      1000 * (25 + static_cast<int>(16.0 * std::fmod(life_start + 0.7548776662 * i, 1.0)));
  const std::uint64_t sim_seed = base.Fork(index).Next() % 1000000;
  return "{\"mode\":\"closed_loop\",\"params\":{\"nodes\":" +
         std::to_string(nodes) + "},\"failure\":{\"mean_lifetime_s\":" +
         std::to_string(lifetime_s) +
         "},\"horizon_epochs\":8,\"epoch_periods\":20,"
         "\"constraints\":{\"min_detection\":0.85,\"pf\":0.00005,"
         "\"max_fa\":0.05},"
         "\"search\":{\"k\":{\"from\":1,\"to\":6},"
         "\"window\":{\"from\":8,\"to\":24,\"step\":2}},"
         "\"sim\":{\"seed\":" + std::to_string(sim_seed) +
         ",\"trials\":400}}";
}

}  // namespace perfbench
