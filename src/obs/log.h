// Leveled, rate-limited structured JSONL logging for the serving stack.
//
// One process-wide logger (plus freely constructible instances for tests)
// replaces the ad-hoc stderr prints in the engine and server paths. Every
// emitted line is one JSON object with a fixed prefix of reserved keys —
//
//   {"ts_ms":<unix ms>,"seq":<monotonic>,"level":"info",
//    "component":"server","event":"drain_started", ...fields...}
//
// — so transcripts are greppable by event and machine-parseable without a
// schema registry. Guarantees:
//
//   * one writer: a mutex serializes emission, so lines never interleave
//     and `seq` is strictly monotonic in file order;
//   * monotonic timestamps: `ts_ms` is clamped to never regress below the
//     previous emitted line (wall clocks step; transcripts must not);
//   * rate limiting: at most `max_per_key_per_sec` lines per
//     (component, event) key per wall second. Suppressed lines are
//     counted and reported on the key's next emitted line as a
//     "suppressed" field, so bursts stay visible without flooding;
//   * determinism for tests: the wall clock is injectable, which makes
//     the rate limiter (and `ts_ms` itself) a pure function of the
//     injected time series.
//
// Emission is cheap but not hot-path-free (a mutex and a flush); callers
// log operator-relevant events (startup, drain), not per-request
// traffic — that is what spans and metrics are for.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/json.h"

namespace sparsedet::obs {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Stable lowercase name, e.g. "warn".
const char* LogLevelName(LogLevel level);
// Parses "debug" | "info" | "warn" | "error"; false on anything else.
bool ParseLogLevel(const std::string& name, LogLevel* level);

struct LogOptions {
  std::string path;  // JSONL file (truncated on Configure); empty = stderr
  LogLevel min_level = LogLevel::kInfo;
  // Per-(component, event) emission cap per wall second; 0 = unlimited.
  std::uint64_t max_per_key_per_sec = 50;
};

class StructuredLog {
 public:
  // A fresh logger writing to stderr at info level.
  StructuredLog();
  ~StructuredLog();

  StructuredLog(const StructuredLog&) = delete;
  StructuredLog& operator=(const StructuredLog&) = delete;

  // The process-wide logger the convenience functions below hit.
  // Intentionally leaked: worker threads may log during process exit.
  static StructuredLog& Global();

  // Replaces sink/level/limit. Reopens (truncates) `options.path` when
  // nonempty; throws Error when the file cannot be opened. Resets the
  // rate-limiter state but not `seq` (a transcript may span Configures).
  void Configure(const LogOptions& options);

  // Test hook: a unix-milliseconds source replacing the wall clock.
  // nullptr restores the real clock.
  void SetClockForTest(std::function<std::int64_t()> clock);

  // Emits one line. `fields` must be a JSON object (default empty); its
  // keys are appended after the reserved prefix keys. Below min_level or
  // over the key's per-second budget the line is dropped (and counted).
  void Write(LogLevel level, std::string_view component,
             std::string_view event, JsonValue fields = JsonValue::Object());

  // Lifetime emission counters (post-filter), for /statusz and tests.
  std::uint64_t lines_written() const;
  std::uint64_t lines_suppressed() const;

 private:
  std::int64_t NowMillisLocked();

  mutable std::mutex mutex_;
  LogOptions options_;
  std::FILE* file_ = nullptr;  // owned iff options_.path nonempty
  std::function<std::int64_t()> clock_;
  std::uint64_t seq_ = 0;
  std::int64_t last_ts_ms_ = 0;  // monotonic clamp
  std::uint64_t written_ = 0;
  std::uint64_t suppressed_total_ = 0;
  struct KeyBudget {
    std::int64_t second = -1;   // wall second of the open budget window
    std::uint64_t emitted = 0;  // lines emitted in that window
    std::uint64_t suppressed = 0;  // dropped since the last emitted line
  };
  std::map<std::string, KeyBudget, std::less<>> budgets_;
};

// Convenience wrappers over Global().
void LogDebug(std::string_view component, std::string_view event,
              JsonValue fields = JsonValue::Object());
void LogInfo(std::string_view component, std::string_view event,
             JsonValue fields = JsonValue::Object());
void LogWarn(std::string_view component, std::string_view event,
             JsonValue fields = JsonValue::Object());
void LogError(std::string_view component, std::string_view event,
              JsonValue fields = JsonValue::Object());

}  // namespace sparsedet::obs
