// Network-native serve mode: a concurrent TCP front-end for BatchEngine.
//
// The server speaks exactly the stdio `serve` protocol — one JSONL request
// per line, one JSONL response per line, command lines answered
// in-stream — over any number of concurrent connections, each of which
// may pipeline requests without waiting for responses. Responses on a
// connection always come back in that connection's request order, byte-
// identical to what the stdio loop would have produced for the same lines,
// command and blank lines included (server-side admission rejections
// aside, which stdio has no analog for).
//
// Architecture: one epoll event-loop thread owns every socket. Inbound
// bytes run through framing::LineDecoder (bounded by the engine's
// max_line_bytes, hostile-input safe); each complete line is read once by
// engine::ReadInputLine, assigned a per-connection sequence number, and
// either handed to OptimizeExecutor (a long command), rejected at
// admission (tenant quota — see token_bucket.h), or submitted to the
// engine via BatchEngine::SubmitAsync. The engine answers each request
// where its work finishes: a result-cache hit, a plan-time error or a
// command on the loop thread itself, before SubmitAsync returns; a
// computed request on the pool worker that publishes its last unit. So
// one connection's slow request stalls no other connection.
// A per-connection reorder buffer merges those responses with server-side
// rejections in sequence order — it alone keeps a connection's responses
// in request order. The loop performs all socket writes (non-blocking,
// EPOLLOUT-driven), so no worker blocks on a slow client: a response
// delivered on the loop is flushed after the read that produced it, and
// one delivered by a worker or the executor wakes the loop once through
// an eventfd.
//
// Cancellation: each connection owns a CancelToken (created with
// allow_memo_inserts, so serving still warms the solver memo cache). On
// disconnect the token is cancelled with CancelReason::kDisconnect, which
// stops that connection's in-flight solves at their next cancellation
// point; their results are dropped, never cached.
//
// Drain: RequestDrain() (async-signal-safe; call it from SIGTERM/SIGINT
// handlers) makes Run() stop accepting, stop reading, flush every
// in-flight response to its socket, and return. Already-admitted requests
// complete normally.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "engine/engine.h"
#include "server/admin_http.h"
#include "server/optimize_exec.h"
#include "server/token_bucket.h"

namespace sparsedet::server {

struct TcpServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; read the bound port back via port()
  std::size_t max_connections = 64;  // excess connections are rejected
  double tenant_qps = 0.0;    // per-tenant admission rate; 0 = unlimited
  double tenant_burst = 0.0;  // bucket capacity; 0 = max(1, tenant_qps)
  std::int64_t idle_timeout_ms = 0;  // close silent connections; 0 = off

  // Out-of-band admin plane (admin_http.h): /metrics, /healthz, /statusz,
  // /tracez on a dedicated thread, reachable while the data plane is
  // saturated or draining. -1 = disabled (the default); 0 = ephemeral.
  int admin_port = -1;
  std::string admin_host = "127.0.0.1";
};

class TcpServer {
 public:
  // The engine must outlive the server. The server registers its own
  // server_* counters in engine.registry(), so they show up in
  // {"cmd":"stats"} responses alongside the engine's.
  TcpServer(engine::BatchEngine& engine, const TcpServerOptions& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds + listens, enables the engine's async API and starts the
  // long-command executor. Throws Error on bind/listen failure.
  void Start();

  // The bound port (after Start()); useful with options.port == 0.
  int port() const { return port_; }
  // The bound admin port (after Start()); -1 when the admin plane is off.
  int admin_port() const { return admin_ != nullptr ? admin_->port() : -1; }

  // Runs the event loop until RequestDrain(); returns after every
  // in-flight response is flushed.
  void Run();

  // Async-signal-safe drain trigger (one write(2) to an eventfd).
  void RequestDrain();

 private:
  struct Conn;

  void Accept();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  // Feeds decoded lines to the executor, admission and the engine.
  void ProcessLines(const std::shared_ptr<Conn>& conn);
  // Stashes a response for `seq` and appends every now-contiguous response
  // to the connection's outbound buffer, without waking the loop. Called
  // from the event loop (rejections, and engine responses answered at
  // submission), the engine's pool workers and the executor.
  void DeliverResponse(const std::shared_ptr<Conn>& conn, std::uint64_t seq,
                       std::string&& text);
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn, bool disconnect);
  void UpdateWriteInterest(const std::shared_ptr<Conn>& conn,
                           bool want_write);
  void CloseIdleConns(std::int64_t now_ns);
  void WakeLoop();
  void StartAdmin();
  JsonValue StatuszJson() const;
  JsonValue AdaptStatuszJson() const;

  engine::BatchEngine& engine_;
  TcpServerOptions options_;
  TenantGovernor governor_;
  // {"cmd":"optimize"} / {"cmd":"adapt"} worker (see optimize_exec.h):
  // created by Start(), drained after the data plane drains, stopped
  // before teardown.
  std::unique_ptr<OptimizeExecutor> optimize_exec_;
  std::unique_ptr<AdminHttpServer> admin_;
  std::int64_t start_ns_ = 0;  // Start() stamp; /statusz uptime base

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: worker/executor delivery + drain requests
  std::thread::id loop_thread_;  // the thread running Run()
  int port_ = 0;
  std::atomic<bool> drain_requested_{false};
  bool draining_ = false;

  // Responses admitted to the engine but not yet called back. Drain
  // completes when this reaches zero and every outbuf is flushed.
  std::atomic<std::uint64_t> outstanding_{0};

  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  // by fd
  int next_conn_id_ = 1;

  // server_* metric handles (registered in the engine's registry).
  obs::Counter* connections_total_;
  obs::Counter* connections_rejected_;
  obs::Counter* idle_closed_;
  obs::Counter* disconnects_;
  obs::Counter* requests_total_;
  obs::Counter* responses_total_;
  obs::Counter* tenant_rejected_;
  obs::Gauge* connections_active_;
  obs::Gauge* drain_state_;  // 0 = serving, 1 = draining, 2 = drained
  // End-to-end latency split (microsecond buckets), fed by the engine's
  // completion hook: plan -> response, submit -> worker pickup, solve.
  obs::Histogram* request_us_;
  obs::Histogram* queue_wait_us_;
  obs::Histogram* solve_us_;
};

}  // namespace sparsedet::server
