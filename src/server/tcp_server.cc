#include "server/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/framing.h"
#include "common/json.h"
#include "common/version.h"
#include "obs/log.h"
#include "obs/timer.h"
#include "prob/memo_cache.h"
#include "resilience/cancel.h"

namespace sparsedet::server {

struct TcpServer::Conn {
  explicit Conn(std::size_t max_line_bytes) : decoder(max_line_bytes) {}

  // Event-loop-thread state.
  int fd = -1;
  int id = 0;
  framing::LineDecoder decoder;
  std::shared_ptr<resilience::CancelToken> token;
  std::int64_t last_activity_ns = 0;
  int line_number = 0;        // 1-based, blank lines counted (engine ids)
  std::uint64_t next_seq = 0;  // next sequence number to assign
  bool want_write = false;     // EPOLLOUT registered
  bool read_open = true;       // false after EOF or drain

  // Requests admitted to the engine whose callback has not yet fired.
  std::atomic<int> pending{0};

  // Shared with the pool workers and the long-command executor, which
  // deliver the responses they complete.
  std::mutex mutex;
  std::uint64_t next_emit = 0;  // next sequence number to append to outbuf
  std::map<std::uint64_t, std::string> ready;  // out-of-order responses
  std::string outbuf;
  bool closed = false;
};

TcpServer::TcpServer(engine::BatchEngine& engine,
                     const TcpServerOptions& options)
    : engine_(engine),
      options_(options),
      governor_(options.tenant_qps, options.tenant_burst),
      connections_total_(
          &engine.registry().counter("server_connections_total")),
      connections_rejected_(
          &engine.registry().counter("server_connections_rejected_total")),
      idle_closed_(&engine.registry().counter("server_idle_closed_total")),
      disconnects_(&engine.registry().counter("server_disconnects_total")),
      requests_total_(&engine.registry().counter("server_requests_total")),
      responses_total_(&engine.registry().counter("server_responses_total")),
      tenant_rejected_(
          &engine.registry().counter("server_tenant_rejected_total")),
      connections_active_(&engine.registry().gauge("server_connections_active")),
      drain_state_(&engine.registry().gauge("server_drain_state")),
      request_us_(&engine.registry().histogram(
          "server_request_us", {}, obs::DefaultLatencyBoundsUs())),
      queue_wait_us_(&engine.registry().histogram(
          "server_queue_wait_us", {}, obs::DefaultLatencyBoundsUs())),
      solve_us_(&engine.registry().histogram(
          "server_solve_us", {}, obs::DefaultLatencyBoundsUs())) {
  // Split the end-to-end latency the completion hook reports into queue
  // wait vs solve: BENCH_PR6's ~280 ms p50 at 32 pipelined connections is
  // indistinguishable from slow solves without this split.
  engine_.SetCompletionHook([this](const obs::CompletedSpan& span) {
    request_us_->Record(span.total_ns / 1000);
    queue_wait_us_->Record(span.queue_wait_ns / 1000);
    solve_us_->Record(span.solve_ns / 1000);
  });
  // Long commands never reach the engine (ProcessLines hands them to the
  // executor), so every other name it is asked about is unknown.
  engine_.SetCommandHook(
      [](const engine::InputLine&) { return UnknownCommandError(); });
}

TcpServer::~TcpServer() {
  // The admin thread serves handlers that read `this`; stop it before any
  // other teardown. Likewise the completion hook captures `this` and runs
  // on the engine's pool workers, which the engine keeps past our
  // lifetime — detach it.
  admin_.reset();
  // The executor's done callbacks touch outstanding_ and the wake fd; its
  // worker must be gone before members are torn down.
  optimize_exec_.reset();
  engine_.SetCompletionHook(nullptr);
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->closed = true;
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw Error("serve-tcp: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    throw Error("serve-tcp: invalid host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw Error("serve-tcp: cannot bind " + options_.host + ":" +
                std::to_string(options_.port) + " (" +
                std::strerror(errno) + ")");
  }
  if (::listen(listen_fd_, 128) != 0) {
    throw Error("serve-tcp: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (wake_fd_ < 0 || epoll_fd_ < 0) {
    throw Error("serve-tcp: eventfd/epoll setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  engine_.StartAsync();
  optimize_exec_ = std::make_unique<OptimizeExecutor>(engine_, governor_);
  optimize_exec_->Start();
  drain_state_->Set(0);
  start_ns_ = obs::NowNanos();
  if (options_.admin_port >= 0) StartAdmin();
  obs::LogInfo("server", "started",
               JsonValue::Object()
                   .Set("host", options_.host)
                   .Set("port", port_)
                   .Set("admin_port", admin_port()));
}

void TcpServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    // write(2) is async-signal-safe; the eventfd wakes the loop.
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void TcpServer::WakeLoop() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpServer::Run() {
  loop_thread_ = std::this_thread::get_id();
  std::vector<epoll_event> events(64);
  for (;;) {
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      // /healthz must report draining before the listener closes, so a
      // balancer polling it never routes to a port about to disappear.
      drain_state_->Set(1);
      obs::LogInfo("server", "drain_started",
                   JsonValue::Object().Set(
                       "outstanding", static_cast<std::int64_t>(
                                          outstanding_.load(
                                              std::memory_order_acquire))));
      // Long commands in flight wind down to degraded partials within one
      // inner-solve batch, and every response they render from here on is
      // tagged degraded — it flushes before the final stats line because
      // the loop below only exits once outstanding_ is zero and all
      // connection buffers are empty.
      if (optimize_exec_ != nullptr) optimize_exec_->BeginDrain();
      // Stop accepting and stop reading; admitted work runs to completion.
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      for (auto& [fd, conn] : conns_) {
        conn->read_open = false;
        UpdateWriteInterest(conn, conn->want_write);
      }
    }
    if (draining_ && outstanding_.load(std::memory_order_acquire) == 0) {
      bool all_flushed = true;
      for (auto it = conns_.begin(); it != conns_.end();) {
        const std::shared_ptr<Conn> conn = it->second;
        ++it;
        FlushConn(conn);  // may erase conn from conns_
        std::lock_guard<std::mutex> lock(conn->mutex);
        if (!conn->outbuf.empty() || !conn->ready.empty()) {
          all_flushed = false;
        }
      }
      if (all_flushed) break;
    }

    int timeout_ms = 1000;
    if (options_.idle_timeout_ms > 0) {
      timeout_ms = static_cast<int>(
          std::min<std::int64_t>(options_.idle_timeout_ms, 500));
    }
    const int n =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("serve-tcp: epoll_wait failed");
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        Accept();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drainv = 0;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        // Workers or the executor delivered responses; flush any conn with
        // output.
        for (auto it = conns_.begin(); it != conns_.end();) {
          auto conn = it->second;  // FlushConn may erase from conns_
          ++it;
          FlushConn(conn);
        }
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      const std::shared_ptr<Conn> conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn, /*disconnect=*/true);
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(conn);
      if (events[i].events & EPOLLOUT) HandleWritable(conn);
    }
    if (options_.idle_timeout_ms > 0) CloseIdleConns(obs::NowNanos());
  }

  // Drained: close remaining sockets.
  for (auto& [fd, conn] : conns_) {
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->closed = true;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  conns_.clear();
  connections_active_->Set(0);
  // outstanding_ hit zero, so the executor's queue is empty and idle; Stop
  // joins its worker before the engine stops emitting.
  if (optimize_exec_ != nullptr) optimize_exec_->Stop();
  engine_.DrainAsync();
  drain_state_->Set(2);
  obs::LogInfo("server", "drained");
}

void TcpServer::Accept() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error
    if (draining_) {
      ::close(fd);
      continue;
    }
    if (conns_.size() >= options_.max_connections) {
      // 429-style structured rejection on the wire before closing; the
      // socket is fresh, so one best-effort write is all it gets.
      JsonValue response = JsonValue::Object();
      response.Set("error", "too many connections")
          .Set("error_code", "max_connections");
      const std::string text = response.ToString() + "\n";
      framing::WriteAllFd(fd, text.data(), text.size());
      ::close(fd);
      connections_rejected_->Inc();
      continue;
    }
    auto conn = std::make_shared<Conn>(engine_.options().max_line_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->last_activity_ns = obs::NowNanos();
    // No deadline, and memo inserts stay allowed: a disconnect abandons
    // the response, it does not invalidate completed sub-results.
    conn->token = std::make_shared<resilience::CancelToken>(
        resilience::Deadline(), nullptr, /*allow_memo_inserts=*/true);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_.emplace(fd, std::move(conn));
    connections_total_->Inc();
    connections_active_->Set(static_cast<std::int64_t>(conns_.size()));
  }
}

void TcpServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  if (!conn->read_open) return;
  char buf[1 << 16];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->last_activity_ns = obs::NowNanos();
      conn->decoder.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn, /*disconnect=*/true);
    return;
  }
  ProcessLines(conn);
  if (eof) {
    conn->read_open = false;
    if (conn->pending.load(std::memory_order_acquire) > 0) {
      // The peer went away with responses still owed: abandon the work.
      CloseConn(conn, /*disconnect=*/true);
      return;
    }
  }
  // Responses answered on this thread (cache hits, plan-time errors,
  // commands, admission rejections) were appended without a wake-up.
  // FlushConn also closes a half-closed connection once its last response
  // is written.
  FlushConn(conn);
}

void TcpServer::ProcessLines(const std::shared_ptr<Conn>& conn) {
  using Kind = engine::InputLine::Kind;
  std::string text;
  bool truncated = false;
  while (conn->decoder.Next(&text, &truncated)) {
    engine::InputLine line =
        engine::ReadInputLine(text, ++conn->line_number, truncated);
    if (line.kind == Kind::kBlank) continue;
    const std::uint64_t seq = conn->next_seq++;
    requests_total_->Inc();

    // Admission control: JSON-object requests pay their tenant's quota.
    // Malformed lines skip it (the engine reports them), and so do command
    // lines — an operator path, or a long command, which pays per
    // inner-solve batch inside the executor instead.
    if (line.kind == Kind::kRequest && line.json.is_object() &&
        governor_.enabled() &&
        !governor_.Admit(line.tenant, obs::NowNanos())) {
      JsonValue response = JsonValue::Object();
      response.Set("id", line.id)
          .Set("error", "tenant quota exceeded")
          .Set("error_code", "quota_exceeded");
      if (!line.tenant.empty()) response.Set("tenant", line.tenant);
      tenant_rejected_->Inc();
      DeliverResponse(conn, seq, response.ToString());
      continue;
    }

    // Both paths below hold the connection's sequence slot and the
    // server's outstanding count, so pipelining order and drain account
    // for every admitted line.
    conn->pending.fetch_add(1, std::memory_order_acq_rel);
    outstanding_.fetch_add(1, std::memory_order_acq_rel);
    // The engine calls back on this thread when nothing was left to
    // compute; HandleReadable flushes those. A pool worker or the executor
    // wakes the loop once, after the counts drop, so a drain sees zero.
    auto deliver = [this, owner = conn, seq](std::string response) {
      DeliverResponse(owner, seq, std::move(response));
      owner->pending.fetch_sub(1, std::memory_order_acq_rel);
      outstanding_.fetch_sub(1, std::memory_order_acq_rel);
      if (std::this_thread::get_id() != loop_thread_) WakeLoop();
    };
    // Long commands run for seconds-to-minutes, blocking on inner solves
    // that complete on the engine's pool workers, so they can run on
    // neither the loop nor a worker: the executor takes them.
    const LongCommand* command =
        line.kind == Kind::kCommand ? FindLongCommand(line.cmd) : nullptr;
    if (command != nullptr) {
      optimize_exec_->Submit(*command, std::move(line), conn->token,
                             std::move(deliver));
    } else {
      engine_.SubmitAsync(std::move(line), conn->token, std::move(deliver));
    }
  }
}

void TcpServer::DeliverResponse(const std::shared_ptr<Conn>& conn,
                                std::uint64_t seq, std::string&& text) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;  // disconnected: drop the response
    conn->ready.emplace(seq, std::move(text));
    // Append every now-contiguous response in sequence order, so pipelined
    // responses leave in exactly the order the requests arrived.
    for (auto it = conn->ready.find(conn->next_emit);
         it != conn->ready.end(); it = conn->ready.find(conn->next_emit)) {
      conn->outbuf += it->second;
      conn->outbuf += '\n';
      conn->ready.erase(it);
      ++conn->next_emit;
      responses_total_->Inc();
    }
  }
}

void TcpServer::HandleWritable(const std::shared_ptr<Conn>& conn) {
  FlushConn(conn);
}

void TcpServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool close_dead = false;
  bool close_done = false;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    while (!conn->outbuf.empty()) {
      const framing::WriteResult result = framing::WriteSomeFd(
          conn->fd, conn->outbuf.data(), conn->outbuf.size());
      if (result.written > 0) {
        conn->last_activity_ns = obs::NowNanos();
        conn->outbuf.erase(0, result.written);
      }
      if (result.error) {
        close_dead = true;
        break;
      }
      if (result.would_block) break;
    }
    if (!close_dead) {
      const bool want = !conn->outbuf.empty();
      if (want != conn->want_write) UpdateWriteInterest(conn, want);
      close_done = !conn->read_open && conn->outbuf.empty() &&
                   conn->ready.empty() &&
                   conn->pending.load(std::memory_order_acquire) == 0;
    }
  }
  if (close_dead) {
    CloseConn(conn, /*disconnect=*/true);
  } else if (close_done) {
    CloseConn(conn, /*disconnect=*/false);
  }
}

void TcpServer::UpdateWriteInterest(const std::shared_ptr<Conn>& conn,
                                    bool want_write) {
  epoll_event ev{};
  ev.events =
      EPOLLIN | (want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  conn->want_write = want_write;
}

void TcpServer::CloseIdleConns(std::int64_t now_ns) {
  const std::int64_t limit_ns = options_.idle_timeout_ms * 1000000;
  std::vector<std::shared_ptr<Conn>> idle;
  for (auto& [fd, conn] : conns_) {
    if (conn->pending.load(std::memory_order_acquire) > 0) continue;
    bool has_output;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      has_output = !conn->outbuf.empty() || !conn->ready.empty();
    }
    if (has_output) continue;
    // Covers true silence and slowloris trickles alike: a connection that
    // has not completed a request in `idle_timeout_ms` is evicted even if
    // it dribbles a byte of a partial frame now and then — activity is
    // only refreshed by reads, and a perpetual partial line never makes
    // progress, so the decoder's has_partial() state ages out with it.
    if (now_ns - conn->last_activity_ns > limit_ns &&
        !conn->decoder.has_partial()) {
      idle.push_back(conn);
    } else if (now_ns - conn->last_activity_ns > 2 * limit_ns) {
      idle.push_back(conn);  // partial frame but no progress: slowloris
    }
  }
  for (const auto& conn : idle) {
    idle_closed_->Inc();
    CloseConn(conn, /*disconnect=*/true);
  }
}

void TcpServer::StartAdmin() {
  AdminHttpOptions admin_options;
  admin_options.host = options_.admin_host;
  admin_options.port = options_.admin_port;
  admin_ = std::make_unique<AdminHttpServer>(admin_options);

  // Prometheus text exposition, the same rendering `metrics-dump` prints.
  admin_->Handle("/metrics", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = engine_.MetricsSnapshot().ToPrometheus();
    return response;
  });

  // Liveness by default (200 as long as the process can answer, with the
  // drain state in the body); readiness with ?ready (503 once draining,
  // the signal a balancer uses to stop routing here).
  admin_->Handle("/healthz", [this](std::string_view query) {
    const std::int64_t state = drain_state_->Value();
    const char* status =
        state == 0 ? "serving" : (state == 1 ? "draining" : "drained");
    AdminResponse response;
    response.content_type = "application/json";
    if (query == "ready" && state != 0) response.status = 503;
    JsonValue body = JsonValue::Object();
    body.Set("status", status).Set("ok", state == 0);
    response.body = body.ToString() + "\n";
    return response;
  });

  admin_->Handle("/statusz", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "application/json";
    response.body = StatuszJson().ToString() + "\n";
    return response;
  });

  admin_->Handle("/tracez", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "application/json";
    response.body = engine_.trace_ring().ToJson().ToString() + "\n";
    return response;
  });

  admin_->Start();
}

JsonValue TcpServer::StatuszJson() const {
  JsonValue build = JsonValue::Object();
  build.Set("name", kBuildName).Set("version", kVersion);

  JsonValue server = JsonValue::Object();
  server
      .Set("max_connections",
           static_cast<std::int64_t>(options_.max_connections))
      .Set("tenant_qps", options_.tenant_qps)
      .Set("tenant_burst", options_.tenant_burst)
      .Set("idle_timeout_ms", options_.idle_timeout_ms);

  const prob::MemoCacheStats memo = prob::MemoCache::Global().Stats();
  JsonValue memo_json = JsonValue::Object();
  memo_json
      .Set("capacity", static_cast<std::int64_t>(memo.capacity_entries))
      .Set("entries", static_cast<std::int64_t>(memo.entries))
      .Set("bytes", static_cast<std::int64_t>(memo.bytes));
  JsonValue shards = JsonValue::Array();
  for (const prob::MemoShardStats& shard :
       prob::MemoCache::Global().ShardStats()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("entries", static_cast<std::int64_t>(shard.entries))
        .Set("bytes", static_cast<std::int64_t>(shard.bytes));
    shards.Append(std::move(entry));
  }
  memo_json.Set("shards", std::move(shards));

  JsonValue log_json = JsonValue::Object();
  log_json
      .Set("lines_written",
           static_cast<std::int64_t>(obs::StructuredLog::Global()
                                         .lines_written()))
      .Set("lines_suppressed",
           static_cast<std::int64_t>(obs::StructuredLog::Global()
                                         .lines_suppressed()));

  JsonValue json = JsonValue::Object();
  json.Set("build", std::move(build))
      .Set("uptime_ms", (obs::NowNanos() - start_ns_) / 1'000'000)
      .Set("host", options_.host)
      .Set("port", port_)
      .Set("admin_port", admin_ != nullptr ? admin_->port() : -1)
      .Set("drain_state", drain_state_->Value())
      .Set("connections_active", connections_active_->Value())
      .Set("engine", engine_.OptionsJson())
      .Set("server", std::move(server))
      .Set("tenants", governor_.StateJson())
      .Set("memo_cache", std::move(memo_json))
      .Set("optimize", optimize_exec_ != nullptr
                           ? optimize_exec_->StatuszJson()
                           : JsonValue::Object().Set("running", 0))
      .Set("adapt", AdaptStatuszJson())
      .Set("log", std::move(log_json));
  obs::SloTracker* slo = engine_.slo();
  if (slo != nullptr) {
    json.Set("slo", slo->StatusJson(obs::NowNanos()));
  } else {
    JsonValue off = JsonValue::Object();
    off.Set("enabled", false);
    json.Set("slo", std::move(off));
  }
  return json;
}

JsonValue TcpServer::AdaptStatuszJson() const {
  // The self-healing loop's deployment-health view: how many adapt runs
  // and epochs this process has served, and the live-population / setting
  // gauges as of the most recent epoch. Reads the shared adapt_* handles
  // (creating zero-valued ones if no adapt command has run yet).
  obs::MetricsRegistry& registry = engine_.registry();
  JsonValue obj = JsonValue::Object();
  obj.Set("runs_total",
          static_cast<std::int64_t>(
              registry.counter("adapt_runs_total").Value()))
      .Set("epochs_total",
           static_cast<std::int64_t>(
               registry.counter("adapt_epochs_total").Value()))
      .Set("retunes_total",
           static_cast<std::int64_t>(
               registry.counter("adapt_retunes_total").Value()))
      .Set("active", registry.gauge("adapt_active").Value())
      .Set("live_population",
           registry.gauge("adapt_live_population").Value())
      .Set("estimated_population",
           registry.gauge("adapt_estimated_population").Value())
      .Set("current_k", registry.gauge("adapt_current_k").Value())
      .Set("current_window", registry.gauge("adapt_current_window").Value());
  return obj;
}

void TcpServer::CloseConn(const std::shared_ptr<Conn>& conn,
                          bool disconnect) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
  }
  if (disconnect && conn->token != nullptr) {
    // Stops this connection's in-flight solves at their next cancellation
    // point; the engine reports them "disconnected" and never caches them.
    conn->token->Cancel(resilience::CancelReason::kDisconnect);
  }
  if (disconnect) disconnects_->Inc();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  connections_active_->Set(static_cast<std::int64_t>(conns_.size()));
}

}  // namespace sparsedet::server
