// Spans for the traced run.
//
// The benchmark records a span around each call it makes into a layer's
// public function (ParseJson, ParseRequest, EvaluateUnit, ...). Each span
// keeps its name, start, end, parent and the id of the op it belongs to.
// Spans stay in memory and are written out once the run ends. A layer's
// self time is its spans' duration minus the time their child spans cover.
//
// Recording is single-threaded: the traced paths run on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t NowNs();

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the span list; -1 at the top
  std::int64_t op;      // -1: the span serves many ops
};

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;  // including children
  std::int64_t calls = 0;
};

class Tracer {
 public:
  void SetOp(std::int64_t op) { op_ = op; }

  std::int32_t Open(const char* name);
  void Close(std::int32_t id);

  // Summed duration of the top-level spans from span `first` on: the sum of
  // every span's self time over that stretch.
  std::int64_t TopLevelNs(std::size_t first) const;
  // Per span name: self time, inclusive time and call count.
  std::map<std::string, LayerTotals> Layers() const;
  std::size_t size() const { return spans_.size(); }
  // One JSON object per span; false if the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::int64_t op_ = -1;
};

// The tracer spans record into, or null in untraced runs.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

// Records one span for its scope when a tracer is active.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : tracer_(ActiveTracer()) {
    if (tracer_ != nullptr) id_ = tracer_->Open(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_ = -1;
};

}  // namespace perfbench
