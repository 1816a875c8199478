// E28 — TCP serve-mode throughput (serving extension; no paper artifact).
// Drives the epoll front-end (src/server/) end to end from real client
// sockets: 32 connections, each pipelining windows of analyze requests,
// 100k+ requests total. Measures sustained throughput and per-request
// latency quantiles, then verifies byte-identity: the concatenated
// per-connection response streams must equal what the stdio `serve` loop
// emits for the same lines, so the transport adds no observable behavior.
//
// Phase 1 also scrapes the out-of-band admin plane (/metrics, /healthz,
// /statusz, /tracez) continuously while the data plane is saturated;
// every scrape must answer 200 with a non-empty body, and /metrics must
// carry the server latency split and the SLO burn-rate gauges.
//
// Output ends with one "BENCH_JSON {...}" line (throughput, p50/p99,
// identity + admin-scrape verdicts) that CI collects into
// the perf-trajectory artifact. Exits non-zero when any guarantee fails.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "common/framing.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "engine/engine.h"
#include "prob/memo_cache.h"
#include "server/tcp_server.h"

using namespace sparsedet;

namespace {

constexpr int kConnections = 32;
constexpr int kWindow = 128;  // pipelined requests in flight per connection
constexpr int kScenarios = 24;

// Distinct analyze scenario `slot`, as a serve-protocol request line.
std::string MakeLine(int id, int slot) {
  std::ostringstream os;
  os << "{\"id\": " << id << ", \"op\": \"analyze\", \"params\": {\"nodes\": "
     << (60 + 20 * (slot % 12)) << ", \"speed\": " << (6 + 2 * (slot / 12))
     << "}}";
  return os.str();
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct ClientResult {
  std::string responses;           // raw response bytes, request order
  std::vector<double> latency_us;  // per-request, send-of-window to receive
  bool ok = false;
};

// Reads complete '\n'-terminated responses from `fd` until `count` have
// arrived, appending bytes to `result` and stamping one latency sample per
// response. Returns false on EOF/error before `count` responses.
bool ReadResponses(int fd, int count, std::chrono::steady_clock::time_point t0,
                   ClientResult* result) {
  char buf[1 << 16];
  int seen = 0;
  while (seen < count) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    const auto now = std::chrono::steady_clock::now();
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') {
        ++seen;
        result->latency_us.push_back(
            std::chrono::duration<double, std::micro>(now - t0).count());
      }
    }
    result->responses.append(buf, static_cast<std::size_t>(n));
  }
  return true;
}

// One connection's worth of load: pipeline `lines` in windows of kWindow,
// reading each window's responses before sending the next.
void RunClient(int port, const std::vector<std::string>& lines,
               ClientResult* result) {
  const int fd = ConnectTo(port);
  if (fd < 0) return;
  for (std::size_t start = 0; start < lines.size(); start += kWindow) {
    const std::size_t end = std::min(lines.size(), start + kWindow);
    std::string window;
    for (std::size_t i = start; i < end; ++i) {
      window += lines[i];
      window += '\n';
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (!framing::WriteAllFd(fd, window.data(), window.size()) ||
        !ReadResponses(fd, static_cast<int>(end - start), t0, result)) {
      ::close(fd);
      return;
    }
  }
  ::close(fd);
  result->ok = true;
}

engine::EngineOptions MakeEngineOptions() {
  engine::EngineOptions options;
  options.threads = 0;  // hardware
  options.cache_capacity = 4096;
  options.solver_threads = 1;
  options.memo_cache_entries = 4096;
  // SLO tracking on, so the admin scrape below sees the burn-rate gauges
  // under load (the gauges never touch response bytes, so phase 2's
  // byte-identity check is unaffected).
  options.slo.availability = 0.999;
  options.slo.p99_ms = 30'000;
  return options;
}

// One admin-plane scrape: blocking HTTP GET against the admin port.
// Returns the response body; empty on connect failure, read failure or a
// non-200 status.
std::string AdminGet(int port, const std::string& path) {
  const int fd = ConnectTo(port);
  if (fd < 0) return "";
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n";
  if (!framing::WriteAllFd(fd, request.data(), request.size())) {
    ::close(fd);
    return "";
  }
  std::string raw;
  char buf[1 << 14];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 200", 0) != 0) return "";
  const std::size_t split = raw.find("\r\n\r\n");
  return split == std::string::npos ? "" : raw.substr(split + 4);
}

double Quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "E28", "TCP serve-mode throughput",
      "32 pipelined client connections drive 100k+ analyze requests\n"
      "through the epoll TCP front-end; verifies byte-identity against\n"
      "the stdio serve loop.");

  // CI's sanitizer smoke lowers the request count; the default exercises
  // the 100k+ acceptance bar.
  int per_conn = 3200;  // 32 * 3200 = 102,400 requests
  if (const char* env = std::getenv("SPARSEDET_BENCH_NET_REQUESTS")) {
    per_conn = std::max(kScenarios, std::atoi(env) / kConnections);
  }

  // Per-connection request lines: ids are globally unique, scenarios cycle
  // through a shared pool so the result cache carries the steady state.
  std::vector<std::vector<std::string>> conn_lines(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    conn_lines[c].reserve(static_cast<std::size_t>(per_conn));
    for (int i = 0; i < per_conn; ++i) {
      conn_lines[c].push_back(
          MakeLine(c * 1000000 + i, (c * 7 + i) % kScenarios));
    }
  }
  const std::uint64_t total_requests =
      static_cast<std::uint64_t>(kConnections) *
      static_cast<std::uint64_t>(per_conn);

  prob::MemoCache::Global().Clear();

  // --- Phase 1: cold serve under concurrent pipelined load, with the
  // admin plane scraped out-of-band the whole time. ----------------------
  server::TcpServerOptions sopts;
  sopts.max_connections = kConnections + 4;
  sopts.admin_port = 0;
  double seconds = 0.0;
  std::vector<ClientResult> results(kConnections);
  std::uint64_t admin_scrapes = 0;
  std::uint64_t admin_scrape_failures = 0;
  {
    engine::BatchEngine batch_engine(MakeEngineOptions());
    server::TcpServer server(batch_engine, sopts);
    server.Start();
    std::thread loop([&] { server.Run(); });

    // Rotates through the four endpoints while the data plane is
    // saturated; every scrape must come back 200 with a non-empty body,
    // and /metrics must carry the latency split and the SLO gauges.
    std::atomic<bool> stop_scraper{false};
    std::thread scraper([&, admin_port = server.admin_port()] {
      const std::string paths[] = {"/metrics", "/healthz", "/statusz",
                                   "/tracez"};
      for (std::uint64_t i = 0; !stop_scraper.load(std::memory_order_relaxed);
           ++i) {
        const std::string& path = paths[i % 4];
        const std::string body = AdminGet(admin_port, path);
        ++admin_scrapes;
        const bool ok =
            !body.empty() &&
            (path != "/metrics" ||
             (body.find("server_request_us_bucket") != std::string::npos &&
              body.find("server_queue_wait_us_bucket") != std::string::npos &&
              body.find("slo_burn_rate") != std::string::npos));
        if (!ok) ++admin_scrape_failures;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

    Stopwatch watch;
    std::vector<std::thread> clients;
    clients.reserve(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back(RunClient, server.port(), std::cref(conn_lines[c]),
                           &results[c]);
    }
    for (std::thread& t : clients) t.join();
    seconds = bench::LapSeconds(watch);

    stop_scraper.store(true, std::memory_order_relaxed);
    scraper.join();
    server.RequestDrain();  // drains in-flight work
    loop.join();
  }
  if (admin_scrapes == 0 || admin_scrape_failures != 0) {
    std::cerr << "FAIL: admin plane under load: " << admin_scrape_failures
              << " failed scrapes of " << admin_scrapes << "\n";
  }

  std::vector<double> latencies;
  latencies.reserve(total_requests);
  for (const ClientResult& r : results) {
    if (!r.ok) {
      std::cerr << "FAIL: a client connection died before finishing\n";
      return 1;
    }
    latencies.insert(latencies.end(), r.latency_us.begin(),
                     r.latency_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50_us = Quantile(latencies, 0.50);
  const double p99_us = Quantile(latencies, 0.99);
  const double throughput = static_cast<double>(total_requests) / seconds;

  // --- Phase 2: byte-identity against the stdio serve loop. -------------
  // The same lines, connection by connection, through a fresh stdio
  // engine; each connection's TCP response stream must match exactly.
  bool identical = true;
  {
    std::ostringstream all_lines;
    for (int c = 0; c < kConnections; ++c) {
      for (const std::string& line : conn_lines[c]) all_lines << line << "\n";
    }
    engine::BatchEngine stdio_engine(MakeEngineOptions());
    std::istringstream in(all_lines.str());
    std::ostringstream out;
    stdio_engine.Serve(in, out);
    std::string expected;
    for (const ClientResult& r : results) expected += r.responses;
    identical = out.str() == expected;
    if (!identical) {
      std::cerr << "FAIL: TCP responses diverge from stdio serve ("
                << out.str().size() << " vs " << expected.size()
                << " bytes)\n";
    }
  }

  Table table({"phase", "requests", "seconds", "req/s", "p50 us", "p99 us"});
  table.BeginRow();
  table.AddCell("cold serve (32 conns)");
  table.AddInt(static_cast<int>(total_requests));
  table.AddNumber(seconds, 3);
  table.AddNumber(throughput, 0);
  table.AddNumber(p50_us, 1);
  table.AddNumber(p99_us, 1);
  bench::Emit(table, argc, argv);

  JsonValue bench_json = JsonValue::Object();
  bench_json.Set("bench", "net_serve")
      .Set("connections", kConnections)
      .Set("requests", static_cast<std::int64_t>(total_requests))
      .Set("seconds", seconds)
      .Set("requests_per_s", throughput)
      .Set("p50_us", p50_us)
      .Set("p99_us", p99_us)
      .Set("byte_identical_vs_stdio", identical)
      .Set("admin_scrapes", static_cast<std::int64_t>(admin_scrapes))
      .Set("admin_scrape_failures",
           static_cast<std::int64_t>(admin_scrape_failures))
      .Set("memo_entries_after_cold",
           static_cast<std::int64_t>(
               prob::MemoCache::Global().Stats().entries));
  std::cout << "BENCH_JSON " << bench_json.ToString() << "\n";

  const bool ok = identical && admin_scrapes > 0 && admin_scrape_failures == 0;
  return ok ? 0 : 1;
}
