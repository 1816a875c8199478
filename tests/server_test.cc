// End-to-end tests for the TCP serve front-end: request/response over real
// sockets, pipelined in-order delivery, hostile framing (oversized lines,
// byte-at-a-time frames, slowloris), mid-request disconnect cancellation,
// per-tenant admission control, the connection cap, in-stream stats,
// off-loop {"cmd":"optimize"} / {"cmd":"adapt"} execution, the drain-time
// degraded-tagging contract for long commands, byte-identity with stdio
// serve on command, blank and malformed lines and on pipelined cache hits,
// computed requests and errors, and that one connection's slow request
// does not hold back another connection's response.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/adapt.h"
#include "cli/commands.h"
#include "common/json.h"
#include "engine/engine.h"
#include "opt/backend.h"
#include "opt/optimizer.h"
#include "prob/memo_cache.h"
#include "server/optimize_exec.h"
#include "server/tcp_server.h"
#include "server/token_bucket.h"

namespace sparsedet::server {
namespace {

// A server plus its event-loop thread; drains and joins on destruction.
class TestServer {
 public:
  explicit TestServer(TcpServerOptions options = {},
                      engine::EngineOptions engine_options = {}) {
    engine_options.threads = 2;
    engine_ = std::make_unique<engine::BatchEngine>(engine_options);
    server_ = std::make_unique<TcpServer>(*engine_, options);
    server_->Start();
    loop_ = std::thread([this] { server_->Run(); });
  }

  ~TestServer() { Stop(); }

  void Stop() {
    if (loop_.joinable()) {
      server_->RequestDrain();
      loop_.join();
    }
  }

  int port() const { return server_->port(); }

  // Triggers the drain without joining, so a test can observe in-flight
  // responses delivered while the loop winds down.
  void Drain() { server_->RequestDrain(); }

  std::uint64_t CounterValue(const std::string& name) {
    const obs::RegistrySnapshot snapshot = engine_->MetricsSnapshot();
    for (const auto& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }

 private:
  std::unique_ptr<engine::BatchEngine> engine_;
  std::unique_ptr<TcpServer> server_;
  std::thread loop_;
};

// Blocking client socket with a 10s receive timeout and a buffered line
// reader, so a wedged server fails a test instead of hanging it.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
    timeval tv{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  ~Client() { Close(); }

  bool connected() const { return connected_; }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool Send(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool SendLine(const std::string& line) { return Send(line + "\n"); }

  // Reads one '\n'-terminated line; returns false on EOF/timeout.
  bool ReadLine(std::string* line) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
  }

  // True when response bytes are readable right now, without blocking.
  bool HasData() {
    char byte;
    return !buffer_.empty() ||
           ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
  }

  // True when the peer closed the connection (read returns 0).
  bool WaitForEof() {
    char buf[256];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::int64_t IdOf(const std::string& response) {
  const JsonValue json = ParseJson(response);
  const JsonValue* id = json.Find("id");
  return id != nullptr ? static_cast<std::int64_t>(id->AsDouble()) : -1;
}

TEST(TcpServer, AnswersARequest) {
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"id":7,"op":"analyze"})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 7);
  EXPECT_NE(response.find("\"result\""), std::string::npos);
}

TEST(TcpServer, PipelinedResponsesArriveInRequestOrder) {
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  const int n = 24;
  for (int i = 0; i < n; ++i) {
    burst += R"({"id":)" + std::to_string(i) +
             R"(,"op":"analyze","params":{"nodes":)" +
             std::to_string(60 + 20 * (i % 6)) + "}}\n";
  }
  ASSERT_TRUE(client.Send(burst));
  for (int i = 0; i < n; ++i) {
    std::string response;
    ASSERT_TRUE(client.ReadLine(&response)) << "response " << i;
    EXPECT_EQ(IdOf(response), i);
  }
}

TEST(TcpServer, ConcurrentConnectionsEachGetTheirOwnStream) {
  TestServer server;
  const int conns = 8;
  std::vector<std::thread> threads;
  // char, not bool: the threads write neighbouring slots concurrently, and
  // vector<bool> packs them into shared words.
  std::vector<char> ok(conns, false);
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([c, port = server.port(), &ok] {
      Client client(port);
      if (!client.connected()) return;
      for (int i = 0; i < 5; ++i) {
        const std::int64_t id = c * 100 + i;
        if (!client.SendLine(R"({"id":)" + std::to_string(id) +
                             R"(,"op":"analyze"})")) {
          return;
        }
        std::string response;
        if (!client.ReadLine(&response) || IdOf(response) != id) return;
      }
      ok[c] = true;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < conns; ++c) EXPECT_TRUE(ok[c]) << "connection " << c;
}

TEST(TcpServer, OversizedLineRejectedAndConnectionSurvives) {
  // The engine's bound frames the socket too.
  engine::EngineOptions engine_options;
  engine_options.max_line_bytes = 256;
  TestServer server({}, engine_options);
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(std::string(5000, 'x')));
  ASSERT_TRUE(client.SendLine(R"({"id":1,"op":"analyze"})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("line_too_long"), std::string::npos);
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 1);
  EXPECT_NE(response.find("\"result\""), std::string::npos);
}

TEST(TcpServer, CommandBlankAndMalformedLinesMatchStdioServe) {
  // No {"cmd":"stats"}: its metrics legitimately differ between transports.
  std::string deep = R"({"id":"deep","op":"analyze","params":)";
  for (int i = 0; i < 80; ++i) deep += R"({"nodes":)";
  deep += "60" + std::string(81, '}');  // 80 levels against the bound of 64
  const std::vector<std::string> lines = {
      R"({"cmd":"nope"})",
      R"({"cmd":7})",
      R"({"cmd":"stats")",
      R"({"cmd":"optimize"})",
      R"({"cmd":"adapt","bogus":1})",
      "",
      R"({"op":"analyze"})",
      R"({"id":"cmd","op":"analyze"})",
      deep,
  };
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream stdio;
  std::ostringstream err;
  ASSERT_EQ(cli::CmdServe({"--threads", "2"}, in, stdio, err), 0)
      << err.str();
  EXPECT_NE(stdio.str().find(
                R"(unknown cmd; expected \"stats\", \"adapt\", \"optimize\")"),
            std::string::npos)
      << stdio.str();
  // The id-less request after the blank line is line 7, blanks counted.
  EXPECT_NE(stdio.str().find(R"({"id":7,"op":"analyze")"), std::string::npos)
      << stdio.str();
  EXPECT_NE(stdio.str().find("nesting too deep"), std::string::npos)
      << stdio.str();

  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.Send(input));
  std::string tcp;
  std::string response;
  for (std::size_t i = 1; i < lines.size(); ++i) {  // the blank line: none
    ASSERT_TRUE(client.ReadLine(&response)) << "response " << i;
    tcp += response + "\n";
  }
  EXPECT_EQ(tcp, stdio.str());
}

TEST(TcpServer, ByteAtATimeFramesAreReassembled) {
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string frame = R"({"id":3,"op":"analyze"})" "\n";
  for (char c : frame) {
    ASSERT_TRUE(client.Send(std::string(1, c)));
  }
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 3);
}

TEST(TcpServer, IdleConnectionIsClosed) {
  TcpServerOptions options;
  options.idle_timeout_ms = 100;
  TestServer server(options);
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
  EXPECT_GE(server.CounterValue("server_idle_closed_total"), 1u);
}

TEST(TcpServer, SlowlorisPartialFrameIsClosed) {
  TcpServerOptions options;
  options.idle_timeout_ms = 100;
  TestServer server(options);
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // A partial frame trickled in but never completed: the server must give
  // it the doubled grace period, then cut it off.
  ASSERT_TRUE(client.Send(R"({"id":99,"op":)"));
  EXPECT_TRUE(client.WaitForEof());
  server.Stop();
  EXPECT_GE(server.CounterValue("server_idle_closed_total"), 1u);
}

TEST(TcpServer, MidRequestDisconnectCancelsWithoutCaching) {
  prob::MemoCache::Global().Clear();
  const prob::MemoCacheStats before = prob::MemoCache::Global().Stats();
  {
    engine::EngineOptions engine_options;
    // Every evaluate sleeps 300ms before the first cancellation point, so
    // the disconnect always lands mid-request.
    engine_options.fault_config =
        R"({"delay_every":1,"delay_ms":300,"max_faults":1})";
    TestServer server({}, engine_options);
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendLine(R"({"id":1,"op":"analyze"})"));
    // Wait for the server to admit the request (it then sleeps in the
    // injected delay), so the close lands mid-solve.
    for (int i = 0;
         i < 500 && server.CounterValue("server_requests_total") < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(server.CounterValue("server_requests_total"), 1u);
    client.Close();  // abandon the in-flight request
    for (int i = 0;
         i < 500 && server.CounterValue("server_disconnects_total") < 1; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    server.Stop();  // drain waits for the cancelled unit to settle
    EXPECT_GE(server.CounterValue("server_disconnects_total"), 1u);
  }
  const prob::MemoCacheStats after = prob::MemoCache::Global().Stats();
  EXPECT_EQ(after.inserts - before.inserts, 0u)
      << "a disconnected request must not warm the memo cache";
}

TEST(TcpServer, TenantQuotaRejectsAndCounts) {
  TcpServerOptions options;
  options.tenant_qps = 1.0;
  options.tenant_burst = 1.0;
  TestServer server(options);
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < 3; ++i) {
    burst += R"({"id":)" + std::to_string(i) +
             R"(,"op":"analyze","tenant":"acme"})" "\n";
  }
  // A different tenant has its own bucket and must not be throttled by
  // acme's burst.
  burst += R"({"id":10,"op":"analyze","tenant":"zed"})" "\n";
  ASSERT_TRUE(client.Send(burst));

  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 0);
  EXPECT_NE(response.find("\"result\""), std::string::npos);
  for (int i = 1; i < 3; ++i) {
    ASSERT_TRUE(client.ReadLine(&response));
    EXPECT_EQ(IdOf(response), i);
    EXPECT_NE(response.find("quota_exceeded"), std::string::npos);
    EXPECT_NE(response.find("acme"), std::string::npos);
  }
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 10);
  EXPECT_NE(response.find("\"result\""), std::string::npos);

  ASSERT_TRUE(client.SendLine(R"({"cmd":"stats"})"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("server_tenant_rejected_total"), std::string::npos);
  server.Stop();
  EXPECT_EQ(server.CounterValue("server_tenant_rejected_total"), 2u);
}

TEST(TcpServer, ConnectionCapRejectsTheOverflow) {
  TcpServerOptions options;
  options.max_connections = 1;
  TestServer server(options);
  Client first(server.port());
  ASSERT_TRUE(first.connected());
  // The first connection must be established server-side before the second
  // arrives, or the kernel may queue both before a single Accept() pass.
  std::string response;
  ASSERT_TRUE(first.SendLine(R"({"id":1,"op":"analyze"})"));
  ASSERT_TRUE(first.ReadLine(&response));

  Client second(server.port());
  ASSERT_TRUE(second.connected());
  ASSERT_TRUE(second.ReadLine(&response));
  EXPECT_NE(response.find("max_connections"), std::string::npos);
  EXPECT_TRUE(second.WaitForEof());

  // The first connection keeps working.
  ASSERT_TRUE(first.SendLine(R"({"id":2,"op":"analyze"})"));
  ASSERT_TRUE(first.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 2);
  server.Stop();
  EXPECT_GE(server.CounterValue("server_connections_rejected_total"), 1u);
}

TEST(TcpServer, StatsCommandAnswersInStream) {
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"id":1,"op":"analyze"})"));
  ASSERT_TRUE(client.SendLine(R"({"cmd":"stats"})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 1);
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_NE(response.find("\"stats\""), std::string::npos);
  // The pipelined stats line reflects the request submitted before it and
  // carries the server's own counters.
  EXPECT_NE(response.find("\"requests\":1"), std::string::npos);
  EXPECT_NE(response.find("server_connections_active"), std::string::npos);
}

TEST(TcpServer, SlowRequestDoesNotStallOtherConnections) {
  engine::EngineOptions engine_options;
  // The first evaluate sleeps 2 s before its first cancellation point, so
  // connection A's request is slow and every later one is not.
  engine_options.fault_config =
      R"({"delay_every":1,"delay_ms":2000,"max_faults":1})";
  TestServer server({}, engine_options);
  Client a(server.port());
  Client b(server.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  ASSERT_TRUE(a.SendLine(R"({"id":1,"op":"analyze","params":{"nodes":61}})"));
  // Wait until A's unit sleeps in the injected delay, so the delay cannot
  // land on B's unit instead.
  for (int i = 0;
       i < 500 && server.CounterValue("engine_injected_faults_total") < 1;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(server.CounterValue("engine_injected_faults_total"), 1u);

  ASSERT_TRUE(b.SendLine(R"({"id":2,"op":"analyze","params":{"nodes":62}})"));
  std::string response;
  ASSERT_TRUE(b.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 2);
  EXPECT_NE(response.find("\"result\""), std::string::npos) << response;
  // B was answered while A's response is still owed: not yet delivered by
  // the server, and nothing to read on A's socket.
  EXPECT_EQ(server.CounterValue("server_responses_total"), 1u);
  EXPECT_FALSE(a.HasData());

  ASSERT_TRUE(a.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 1);
  EXPECT_NE(response.find("\"result\""), std::string::npos) << response;
}

TEST(TcpServer, PipelinedHitsComputesAndErrorsMatchStdioServe) {
  // No {"cmd":"stats"}: its counters depend on timing.
  const std::string warm = R"({"id":"warm","op":"analyze","params":{"nodes":90}})";
  const std::string fresh =
      R"({"id":"fresh","op":"analyze","params":{"nodes":110}})";
  const std::vector<std::string> lines = {
      warm,   // one round trip first: cached by the time the rest arrive
      fresh,  // computed
      fresh,  // coalesced, or computed again, or a hit: the same bytes
      warm,   // a cache hit, answered from the entry's bytes
      R"({"id":"sweep","op":"sweep","sweep":{"param":"nodes","from":60,"to":100,"step":20}})",
      R"({"id":"bad","op":)",  // malformed
      R"({"id":"neg","op":"analyze","params":{"nodes":-5}})",  // plan error
      R"({"op":"analyze","params":{"nodes":90}})",  // id-less, a cache hit
  };
  std::string input;
  for (const std::string& line : lines) input += line + "\n";
  std::istringstream in(input);
  std::ostringstream stdio;
  std::ostringstream err;
  ASSERT_EQ(cli::CmdServe({"--threads", "2"}, in, stdio, err), 0)
      << err.str();
  // The id-less request is line 8 on both transports.
  EXPECT_NE(stdio.str().find(R"({"id":8,"op":"analyze","result":)"),
            std::string::npos)
      << stdio.str();

  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  std::string tcp;
  std::string response;
  ASSERT_TRUE(client.SendLine(lines[0]));
  ASSERT_TRUE(client.ReadLine(&response));
  tcp += response + "\n";
  std::string burst;
  for (std::size_t i = 1; i < lines.size(); ++i) burst += lines[i] + "\n";
  ASSERT_TRUE(client.Send(burst));
  for (std::size_t i = 1; i < lines.size(); ++i) {
    ASSERT_TRUE(client.ReadLine(&response)) << "response " << i;
    tcp += response + "\n";
  }
  EXPECT_EQ(tcp, stdio.str());
  server.Stop();
  EXPECT_GE(server.CounterValue("engine_cache_hits_total"), 2u);
}

// The optimize command a few tests share: the golden reference study
// (min nodes, N in 60..160 step 20, k in 3..6, P_D >= 0.8).
std::string OptimizeCommandLine(int id) {
  return R"({"cmd":"optimize","id":)" + std::to_string(id) +
         R"(,"spec":{"constraints":{"min_detection":0.8},)"
         R"("search":{"nodes":{"from":60,"to":160,"step":20},)"
         R"("k":{"from":3,"to":6}}}})";
}

TEST(TcpServer, OptimizeCommandAnswersOffLoopInStreamOrder) {
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // Pipeline a solve, the optimize run, and another solve: the executor
  // must hold the optimize response's sequence slot so the stream stays in
  // request order even though the search runs on its own thread.
  ASSERT_TRUE(client.SendLine(R"({"id":1,"op":"analyze"})"));
  ASSERT_TRUE(client.SendLine(OptimizeCommandLine(2)));
  ASSERT_TRUE(client.SendLine(R"({"id":3,"op":"analyze"})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 1);
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 2);
  EXPECT_NE(response.find("\"result\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"nodes\":85,\"k\":3"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"degraded\":false"), std::string::npos);
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 3);
  server.Stop();
  EXPECT_EQ(server.CounterValue("opt_server_jobs_total"), 1u);
  EXPECT_EQ(server.CounterValue("opt_runs_total"), 1u);
  EXPECT_GT(server.CounterValue("opt_candidates_total"), 0u);
}

TEST(TcpServer, OptimizeResponseMatchesTheStdioHandler) {
  // The same command through a standalone engine + SyncEngineBackend (what
  // stdio serve runs) must produce byte-identical response text — the
  // transport must not leak into the result.
  std::string expected;
  {
    engine::EngineOptions options;
    options.threads = 2;
    engine::BatchEngine engine(options);
    opt::SyncEngineBackend backend(engine);
    expected = opt::HandleOptimizeCommand(ParseJson(OptimizeCommandLine(4)),
                                          backend, &engine.registry())
                   .ToString();
  }
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(OptimizeCommandLine(4)));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, expected);
}

TEST(TcpServer, OptimizeErrorIsStructuredAndTheConnectionSurvives) {
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // Missing "spec": a structured error response, not a dropped connection.
  ASSERT_TRUE(client.SendLine(R"({"cmd":"optimize","id":9})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 9);
  EXPECT_NE(response.find("\"error\""), std::string::npos);
  EXPECT_NE(response.find("spec"), std::string::npos);
  ASSERT_TRUE(client.SendLine(R"({"id":10,"op":"analyze"})"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 10);
  EXPECT_NE(response.find("\"result\""), std::string::npos);
}

// The adapt command a few tests share: a short analyze-mode loop.
std::string AdaptCommandLine(int id) {
  return R"({"cmd":"adapt","id":)" + std::to_string(id) +
         R"(,"spec":{"mode":"analyze",)"
         R"("params":{"nodes":60,"window":10,"k":3},)"
         R"("failure":{"mean_lifetime_s":40000},"horizon_epochs":3,)"
         R"("constraints":{"min_detection":0.5},)"
         R"("search":{"k":{"from":2,"to":5}}}})";
}

TEST(TcpServer, AdaptCommandAnswersOffLoopInStreamOrder) {
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // Pipeline a solve, the adapt run, and another solve: in-order delivery
  // even though the loop runs on the executor thread.
  ASSERT_TRUE(client.SendLine(R"({"id":1,"op":"analyze"})"));
  ASSERT_TRUE(client.SendLine(AdaptCommandLine(2)));
  ASSERT_TRUE(client.SendLine(R"({"id":3,"op":"analyze"})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 1);
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 2);
  EXPECT_NE(response.find("\"result\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"epochs_run\":3"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"degraded\":false"), std::string::npos);
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 3);
  server.Stop();
  EXPECT_EQ(server.CounterValue("opt_server_jobs_total"), 1u);
  EXPECT_EQ(server.CounterValue("adapt_runs_total"), 1u);
  EXPECT_EQ(server.CounterValue("adapt_epochs_total"), 3u);
}

TEST(TcpServer, AdaptResponseMatchesTheStdioHandler) {
  // The same command through a standalone engine + SyncEngineBackend (what
  // stdio serve runs) must produce byte-identical response text.
  std::string expected;
  {
    engine::EngineOptions options;
    options.threads = 2;
    engine::BatchEngine engine(options);
    opt::SyncEngineBackend backend(engine);
    expected = adapt::HandleAdaptCommand(ParseJson(AdaptCommandLine(4)),
                                         backend, &engine.registry())
                   .ToString();
  }
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(AdaptCommandLine(4)));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(response, expected);
}

TEST(TcpServer, AdaptErrorIsStructuredAndTheConnectionSurvives) {
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.SendLine(R"({"cmd":"adapt","id":9})"));
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 9);
  EXPECT_NE(response.find("\"error\""), std::string::npos);
  EXPECT_NE(response.find("\"error_code\":\"invalid_argument\""),
            std::string::npos);
  ASSERT_TRUE(client.SendLine(R"({"id":10,"op":"analyze"})"));
  ASSERT_TRUE(client.ReadLine(&response));
  EXPECT_EQ(IdOf(response), 10);
  EXPECT_NE(response.find("\"result\""), std::string::npos);
}

TEST(TcpServer, DrainTagsInFlightLongCommandsDegradedAndFlushesThem) {
  // Regression: a long command still running when SIGTERM drain starts
  // must (a) stop at its next batch boundary, (b) carry "degraded":true
  // even if its own run state says otherwise, and (c) flush to the socket
  // BEFORE the server closes the connection and Run() returns — a drained
  // client must never see a truncated stream or a response claiming
  // completeness.
  TestServer server;
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // A loop far too long to finish: 256 epochs over a 300-candidate grid.
  ASSERT_TRUE(client.SendLine(
      R"({"cmd":"adapt","id":1,"spec":{"mode":"analyze",)"
      R"("params":{"nodes":60,"window":10,"k":3},)"
      R"("failure":{"mean_lifetime_s":40000},"horizon_epochs":256,)"
      R"("search":{"k":{"from":1,"to":10},)"
      R"("window":{"from":8,"to":37}}}})"));
  // Let the executor pick the job up, then drain mid-run.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.Drain();
  std::string response;
  ASSERT_TRUE(client.ReadLine(&response)) << "drain dropped the response";
  EXPECT_EQ(IdOf(response), 1);
  EXPECT_NE(response.find("\"result\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"degraded\":true"), std::string::npos)
      << response;
  // After the flushed response the server closes cleanly: EOF, not junk.
  std::string extra;
  EXPECT_FALSE(client.ReadLine(&extra)) << extra;
  server.Stop();
}

TEST(OptimizeExecutor, StopAnswersEveryQueuedJobInOrder) {
  engine::BatchEngine engine(engine::EngineOptions{});
  engine.StartAsync();
  TenantGovernor governor(/*qps=*/0.0, /*burst=*/0.0);
  OptimizeExecutor executor(engine, governor);
  executor.Start();
  // Malformed jobs are answered without solving. Stop() right after the
  // submits may find them queued or running, and must answer each one.
  std::mutex mutex;
  std::vector<std::string> responses;
  for (int id = 1; id <= 3; ++id) {
    executor.Submit(
        *FindLongCommand("optimize"),
        engine::ReadInputLine(R"({"cmd":"optimize","id":)" +
                                  std::to_string(id) + R"(,"bogus":1})",
                              id, /*too_long=*/false),
        nullptr, [&](std::string response) {
          std::lock_guard<std::mutex> lock(mutex);
          responses.push_back(std::move(response));
        });
  }
  executor.Stop();  // no wait first: Stop itself drains
  ASSERT_EQ(responses.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(IdOf(responses[i]), i + 1);
    EXPECT_NE(responses[i].find("unknown key"), std::string::npos)
        << responses[i];
  }
  const JsonValue status = executor.StatuszJson();
  EXPECT_EQ(status.Find("jobs_total")->AsDouble(), 3.0);
  EXPECT_EQ(status.Find("queue_depth")->AsDouble(), 0.0);
}

TEST(TokenBucket, RefillsAtTheConfiguredRate) {
  TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/2.0);
  std::int64_t now = 0;
  EXPECT_TRUE(bucket.TryAcquire(now));  // starts full: 2 tokens
  EXPECT_TRUE(bucket.TryAcquire(now));
  EXPECT_FALSE(bucket.TryAcquire(now));
  now += 100'000'000;  // 100ms at 10/s = 1 token
  EXPECT_TRUE(bucket.TryAcquire(now));
  EXPECT_FALSE(bucket.TryAcquire(now));
  now += 10'000'000'000;  // a long pause refills to burst, not beyond
  EXPECT_TRUE(bucket.TryAcquire(now));
  EXPECT_TRUE(bucket.TryAcquire(now));
  EXPECT_FALSE(bucket.TryAcquire(now));
}

TEST(TenantGovernor, DisabledWhenQpsIsZero) {
  TenantGovernor governor(/*qps=*/0.0, /*burst=*/0.0);
  EXPECT_FALSE(governor.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(governor.Admit("anyone", i));
  }
}

TEST(TenantGovernor, TenantsHaveIndependentBuckets) {
  TenantGovernor governor(/*qps=*/1.0, /*burst=*/1.0);
  ASSERT_TRUE(governor.enabled());
  EXPECT_TRUE(governor.Admit("a", 0));
  EXPECT_FALSE(governor.Admit("a", 0));
  EXPECT_TRUE(governor.Admit("b", 0));  // unaffected by a's exhaustion
}

}  // namespace
}  // namespace sparsedet::server
