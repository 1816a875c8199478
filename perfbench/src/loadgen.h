// The serve-hot client: a `sparsedet serve-tcp` child process and a
// one-thread load generator driving it over a few pipelined connections.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

// Peak resident set (VmHWM) in KiB of /proc/<process>, e.g. "self".
std::int64_t PeakRssKib(const std::string& process);

// A `sparsedet serve-tcp` child; the constructor returns once it listens.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary,
                const std::vector<std::string>& args);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  // Peak resident set (VmHWM) in KiB and CPU time (user + system) in
  // microseconds, read from /proc.
  std::int64_t PeakRssKib() const;
  std::int64_t CpuMicros() const;
  // SIGTERM, then waits for the drain; returns the exit status.
  int Stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

// First response seen per request line; every later response to the same
// line must match it byte for byte.
class ResponseBook {
 public:
  // False when `response` differs from the first response to `line`.
  bool Record(std::size_t line, const std::string& response);
  const std::vector<std::string>& first() const { return first_; }

 private:
  std::vector<std::string> first_;
};

struct PhaseResult {
  std::int64_t sent = 0;
  std::int64_t completed = 0;        // responses received and matched
  std::int64_t in_window = 0;        // completed before the phase ended
  std::int64_t failed = 0;           // mismatches, error lines, drops
  std::int64_t bytes = 0;            // request + response bytes
  std::int64_t window_ns = 0;        // the phase's timed length
  // Closed loop: when each in-window completion arrived, from the start.
  std::vector<std::int64_t> completion_ns;
  std::vector<std::int64_t> latency_ns;  // from scheduled send time
  std::vector<std::int64_t> late_ns;     // open loop: send - schedule
  // Open loop, per request in schedule order: scheduled send time from the
  // phase start, and latency (-1 when no response came).
  std::vector<std::int64_t> scheduled_ns;
  std::vector<std::int64_t> latency_by_request;
  std::int64_t outstanding_at_end = 0;   // open loop: when the schedule ended
  bool backlog_growing = false;
  std::vector<std::size_t> lines;        // open loop: request lines in order
};

class LoadClient {
 public:
  LoadClient(int port, std::size_t connections);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  // Sends `lines` pipelined on the first connection; returns the responses.
  std::vector<std::string> RoundTrip(const std::vector<std::string>& lines);

  // Closed loop: every connection keeps `window` requests in flight for
  // `seconds`, then drains.
  PhaseResult ClosedLoop(ServeHotTraffic& traffic, const Rng& rng,
                         const std::string& tag, std::size_t window,
                         double seconds, ResponseBook& book);
  // Open loop: a Poisson schedule at `rate` requests/s for `seconds`,
  // spread round-robin over the connections; every response is awaited.
  PhaseResult OpenLoop(ServeHotTraffic& traffic, const Rng& rng,
                       const std::string& tag, double rate, double seconds,
                       ResponseBook& book);

  // Open-loop schedule: send times (ns from phase start) and line indexes.
  static void Schedule(ServeHotTraffic& traffic, const Rng& rng,
                       const std::string& tag, double rate, double seconds,
                       std::vector<std::int64_t>* at_ns,
                       std::vector<std::size_t>* lines);

 private:
  struct Conn;
  // Writes what it can, reads what is there; calls `on_response` per line.
  template <typename OnResponse>
  bool Pump(std::int64_t timeout_ns, OnResponse&& on_response);

  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench
