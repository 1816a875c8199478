#include "trace.h"

#include <chrono>
#include <fstream>

namespace perfbench {
namespace {

Tracer* g_tracer = nullptr;

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer* ActiveTracer() { return g_tracer; }
void SetActiveTracer(Tracer* tracer) { g_tracer = tracer; }

std::int32_t Tracer::Open(const char* name) {
  spans_.push_back(Span{name, NowNs(), 0, current_, op_});
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::Close(std::int32_t id) {
  spans_[id].end_ns = NowNs();
  current_ = spans_[id].parent;
}

std::int64_t Tracer::TopLevelNs(std::size_t first) const {
  std::int64_t ns = 0;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) ns += spans_[i].end_ns - spans_[i].start_ns;
  }
  return ns;
}

std::map<std::string, LayerTotals> Tracer::Layers() const {
  std::map<std::string, LayerTotals> layers;
  for (const Span& span : spans_) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    LayerTotals& own = layers[span.name];
    own.self_ns += duration;
    own.total_ns += duration;
    ++own.calls;
    if (span.parent >= 0) layers[spans_[span.parent].name].self_ns -= duration;
  }
  return layers;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return false;
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns - base
        << ",\"end_ns\":" << s.end_ns - base << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
