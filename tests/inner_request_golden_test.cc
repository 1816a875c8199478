// The exact engine request lines optimize and adapt hand to their
// SolveBackend, compared with committed golden files. Result bytes alone
// would not catch a change in how the inner requests are phrased (key
// order, number formatting, batch boundaries), yet those lines are what
// the engine caches on and what the TCP front-end meters, so they are part
// of the contract too.
//
// Golden format: one request line per line, a blank line after each batch.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/adapt.h"
#include "adapt/spec.h"
#include "common/json.h"
#include "engine/engine.h"
#include "opt/backend.h"
#include "opt/optimizer.h"
#include "opt/spec.h"

namespace sparsedet {
namespace {

class RecordingBackend : public opt::SolveBackend {
 public:
  explicit RecordingBackend(opt::SolveBackend& inner) : inner_(inner) {}

  std::vector<JsonValue> Solve(
      const std::vector<std::string>& lines) override {
    for (const std::string& line : lines) recorded_ += line + "\n";
    recorded_ += "\n";
    return inner_.Solve(lines);
  }

  const std::string& recorded() const { return recorded_; }

 private:
  opt::SolveBackend& inner_;
  std::string recorded_;
};

std::string ReadGolden(const std::string& name) {
  std::ifstream file(std::string(SPARSEDET_SOURCE_DIR) + "/tests/golden/" +
                     name);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

// On a mismatch the recording is written next to the other test temp files
// so it can be diffed against the golden.
void ExpectMatchesGolden(const std::string& recorded,
                         const std::string& name) {
  const std::string golden = ReadGolden(name);
  if (recorded == golden) return;
  const std::string actual = ::testing::TempDir() + name;
  std::ofstream(actual) << recorded;
  ADD_FAILURE() << "inner request lines differ from tests/golden/" << name
                << "; recording written to " << actual;
}

TEST(InnerRequestGolden, OptimizeSpecLines) {
  const opt::OptimizeSpec spec = opt::ParseOptimizeSpec(ParseJson(R"({
    "objective": "min_nodes",
    "constraints": {"min_detection": 0.8, "pf": 0.001},
    "search": {"nodes": {"from": 60, "to": 160, "step": 20},
               "k": {"from": 3, "to": 6},
               "duty": {"from": 0.5, "to": 1, "step": 0.5}},
    "params": {"speed": 12.5, "rs": 1200},
    "options": {"gh": 4, "g": 4, "normalize": false, "reliability": 0.95},
    "refine_rounds": 2})"));
  engine::BatchEngine engine({});
  opt::SyncEngineBackend sync(engine);
  RecordingBackend backend(sync);
  opt::Optimizer(spec, backend).Run();
  ExpectMatchesGolden(backend.recorded(), "optimize_inner_lines.txt");
}

TEST(InnerRequestGolden, ClosedLoopAdaptSpecLines) {
  const adapt::AdaptSpec spec = adapt::ParseAdaptSpec(ParseJson(R"({
    "mode": "closed_loop",
    "params": {"nodes": 100},
    "options": {"gh": 4, "g": 4},
    "failure": {"mean_lifetime_s": 30000, "report_loss": 0.05},
    "horizon_epochs": 3,
    "constraints": {"min_detection": 0.5, "pf": 0.0001},
    "search": {"k": {"from": 2, "to": 4}},
    "estimator": {"source": "reports", "windows": 2},
    "sim": {"seed": 5, "trials": 50}})"));
  engine::BatchEngine engine({});
  opt::SyncEngineBackend sync(engine);
  RecordingBackend backend(sync);
  adapt::AdaptRun(spec, backend);
  ExpectMatchesGolden(backend.recorded(), "adapt_inner_lines.txt");
}

}  // namespace
}  // namespace sparsedet
