#include "loadgen.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr std::int64_t kNsPerSecond = 1000000000;
// How long a phase may take to drain before what is left counts as dropped.
constexpr std::int64_t kDrainLimitNs = 60 * kNsPerSecond;

std::int64_t Median(std::vector<std::int64_t> values) {
  if (values.empty()) return 0;
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

bool IsErrorLine(const std::string& response) {
  return response.find("\"error\":") != std::string::npos;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args) {
  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  stdout_fd_ = out[0];
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + binary + ": " +
                             std::strerror(rc));
  }
  // The first stdout line is {"listening":{"host":...,"port":N}}.
  std::string text;
  char buffer[512];
  while (text.find('\n') == std::string::npos) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 30000) <= 0) break;
    const ssize_t n = read(stdout_fd_, buffer, sizeof(buffer));
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  const std::size_t at = text.find("\"port\":");
  if (at == std::string::npos) {
    Stop();
    throw std::runtime_error("server did not report a port: " + text);
  }
  port_ = std::atoi(text.c_str() + at + 7);
}

ServerProcess::~ServerProcess() { Stop(); }

std::int64_t ServerProcess::PeakRssKib() const {
  return perfbench::PeakRssKib(std::to_string(pid_));
}

std::int64_t PeakRssKib(const std::string& process) {
  std::ifstream status("/proc/" + process + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      std::int64_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(1 << 20, '\n');
  }
  return 0;
}

// /proc/<pid>/stat counts every thread the server ever ran, but in 10 ms
// ticks; /proc/<pid>/task/*/schedstat counts in nanoseconds, but only the
// threads alive now. Each undercounts, so the larger is the better figure:
// the nanosecond sum while no thread has exited, which holds for
// serve-tcp, whose threads all live as long as it does.
std::int64_t ServerProcess::CpuMicros() const {
  const std::string proc = "/proc/" + std::to_string(pid_);
  std::ifstream stat(proc + "/stat");
  std::string text;
  std::getline(stat, text);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  std::istringstream rest(text.substr(text.rfind(')') + 2));
  std::string field;
  std::int64_t ticks = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14 || i == 15) ticks += std::stoll(field);
  }
  std::int64_t live_ns = 0;
  if (DIR* dir = opendir((proc + "/task").c_str())) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      std::ifstream schedstat(proc + "/task/" + entry->d_name + "/schedstat");
      std::int64_t run_ns = 0;
      if (schedstat >> run_ns) live_ns += run_ns;
    }
    closedir(dir);
  }
  return std::max(ticks * 1000000 / sysconf(_SC_CLK_TCK), live_ns / 1000);
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return 0;
  kill(pid_, SIGTERM);
  // The drain ends with the final stats line and EOF; a server that does
  // not drain within the limit is killed.
  char buffer[4096];
  for (;;) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(kDrainLimitNs / 1000000)) <= 0) {
      kill(pid_, SIGKILL);
      break;
    }
    if (read(stdout_fd_, buffer, sizeof(buffer)) <= 0) break;
  }
  close(stdout_fd_);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  return status;
}

bool ResponseBook::Record(std::size_t line, const std::string& response) {
  if (line >= first_.size()) first_.resize(line + 1);
  if (first_[line].empty()) {
    first_[line] = response;
    return true;
  }
  return first_[line] == response;
}

struct LoadClient::Conn {
  struct Inflight {
    std::size_t line;
    std::int64_t scheduled_ns;
    std::size_t seq;
  };
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Inflight> inflight;
  bool dead = false;

  Conn() = default;
  ~Conn() {
    if (fd >= 0) close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
};

LoadClient::LoadClient(int port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Conn>());
    Conn* conn = conns_.back().get();
    conn->fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (conn->fd < 0 ||
        connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("cannot connect to the server");
    }
    const int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  }
}

LoadClient::~LoadClient() = default;

template <typename OnResponse>
bool LoadClient::Pump(std::int64_t timeout_ns, OnResponse&& on_response) {
  std::vector<pollfd> fds;
  for (const auto& conn : conns_) {
    while (!conn->dead && conn->out_off < conn->out.size()) {
      const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<std::size_t>(n);
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          conn->dead = true;
        }
        break;
      }
    }
    if (conn->out_off == conn->out.size()) {
      conn->out.clear();
      conn->out_off = 0;
    }
    short events = POLLIN;
    if (!conn->out.empty()) events |= POLLOUT;
    fds.push_back(pollfd{conn->dead ? -1 : conn->fd, events, 0});
  }
  timespec timeout{timeout_ns / kNsPerSecond, timeout_ns % kNsPerSecond};
  if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) return false;
  const std::int64_t now = NowNs();
  char buffer[65536];
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    Conn& conn = *conns_[c];
    if (conn.dead || (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    for (;;) {
      const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn.in.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        conn.dead = true;
      }
      break;
    }
    std::size_t begin = 0;
    for (std::size_t end; (end = conn.in.find('\n', begin)) != std::string::npos;
         begin = end + 1) {
      if (conn.inflight.empty()) {
        conn.dead = true;  // a response nobody asked for
        break;
      }
      const Conn::Inflight done = conn.inflight.front();
      conn.inflight.pop_front();
      on_response(c, done.line, done.scheduled_ns, done.seq,
                  conn.in.substr(begin, end - begin), now);
    }
    conn.in.erase(0, begin);
  }
  return true;
}

std::vector<std::string> LoadClient::RoundTrip(
    const std::vector<std::string>& lines) {
  Conn& conn = *conns_.front();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    conn.out += lines[i];
    conn.out += '\n';
    conn.inflight.push_back({i, 0, i});
  }
  std::vector<std::string> responses(lines.size());
  const std::int64_t deadline = NowNs() + kDrainLimitNs;
  while (!conn.inflight.empty() && !conn.dead && NowNs() < deadline) {
    Pump(10 * 1000000, [&](std::size_t, std::size_t line, std::int64_t,
                           std::size_t, std::string response, std::int64_t) {
      responses[line] = std::move(response);
    });
  }
  if (!conn.inflight.empty()) throw std::runtime_error("server stopped answering");
  return responses;
}

PhaseResult LoadClient::ClosedLoop(ServeHotTraffic& traffic, const Rng& rng,
                                   const std::string& tag, std::size_t window,
                                   double seconds, ResponseBook& book) {
  PhaseResult result;
  result.window_ns = static_cast<std::int64_t>(seconds * kNsPerSecond);
  std::vector<Rng> streams;
  std::vector<std::size_t> counters(conns_.size(), 0);
  for (std::size_t c = 0; c < conns_.size(); ++c) streams.push_back(rng.Fork(c));
  const auto enqueue = [&](std::size_t c, std::int64_t now) {
    const std::size_t line = traffic.Next(
        streams[c], tag + std::to_string(c), &counters[c]);
    Conn& conn = *conns_[c];
    conn.out += traffic.line(line);
    conn.out += '\n';
    conn.inflight.push_back({line, now, 0});
    result.bytes += static_cast<std::int64_t>(traffic.line(line).size()) + 1;
    ++result.sent;
  };
  const std::int64_t start = NowNs();
  const std::int64_t end = start + result.window_ns;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    for (std::size_t w = 0; w < window; ++w) enqueue(c, start);
  }
  bool stopping = false;
  for (;;) {
    const std::int64_t now = NowNs();
    stopping = stopping || now >= end;
    std::size_t outstanding = 0;
    for (const auto& conn : conns_) {
      if (!conn->dead) outstanding += conn->inflight.size();
    }
    if (outstanding == 0 || now - end > kDrainLimitNs) break;
    Pump(stopping ? 10000000 : std::min<std::int64_t>(10000000, end - now),
         [&](std::size_t c, std::size_t line, std::int64_t scheduled,
             std::size_t, const std::string& response, std::int64_t at) {
           result.bytes += static_cast<std::int64_t>(response.size()) + 1;
           result.latency_ns.push_back(at - scheduled);
           if (!IsErrorLine(response) && book.Record(line, response)) {
             ++result.completed;
             if (at <= end) {
               ++result.in_window;
               result.completion_ns.push_back(at - start);
             }
           } else {
             ++result.failed;
           }
           if (!stopping && at < end) enqueue(c, at);
         });
  }
  for (const auto& conn : conns_) {
    result.failed += static_cast<std::int64_t>(conn->inflight.size());
    conn->inflight.clear();
  }
  return result;
}

void LoadClient::Schedule(ServeHotTraffic& traffic, const Rng& rng,
                          const std::string& tag, double rate, double seconds,
                          std::vector<std::int64_t>* at_ns,
                          std::vector<std::size_t>* lines) {
  Rng stream = rng;
  std::size_t counter = 0;
  double t = 0.0;
  for (;;) {
    t += stream.Exponential(rate);
    if (t >= seconds) break;
    at_ns->push_back(static_cast<std::int64_t>(t * kNsPerSecond));
    lines->push_back(traffic.Next(stream, tag, &counter));
  }
}

PhaseResult LoadClient::OpenLoop(ServeHotTraffic& traffic, const Rng& rng,
                                 const std::string& tag, double rate,
                                 double seconds, ResponseBook& book) {
  PhaseResult result;
  result.window_ns = static_cast<std::int64_t>(seconds * kNsPerSecond);
  std::vector<std::int64_t> at;
  Schedule(traffic, rng, tag, rate, seconds, &at, &result.lines);
  std::vector<std::int64_t>& latency_by_seq = result.latency_by_request;
  latency_by_seq.assign(at.size(), -1);
  const std::int64_t start = NowNs() + 1000000;
  std::size_t next = 0;
  bool schedule_done = false;
  for (;;) {
    const std::int64_t now = NowNs();
    while (next < at.size() && start + at[next] <= now) {
      Conn& conn = *conns_[next % conns_.size()];
      const std::size_t line = result.lines[next];
      if (conn.dead) {
        ++result.failed;
      } else {
        conn.out += traffic.line(line);
        conn.out += '\n';
        conn.inflight.push_back({line, start + at[next], next});
        result.bytes += static_cast<std::int64_t>(traffic.line(line).size()) + 1;
      }
      result.late_ns.push_back(now - (start + at[next]));
      ++result.sent;
      ++next;
    }
    std::size_t outstanding = 0;
    for (const auto& conn : conns_) {
      if (!conn->dead) outstanding += conn->inflight.size();
    }
    if (next == at.size() && !schedule_done) {
      schedule_done = true;
      result.outstanding_at_end = static_cast<std::int64_t>(outstanding);
    }
    if (schedule_done && outstanding == 0) break;
    if (now - start - result.window_ns > kDrainLimitNs) break;
    const std::int64_t wait =
        next < at.size() ? std::max<std::int64_t>(0, start + at[next] - now)
                         : 10000000;
    Pump(wait, [&](std::size_t, std::size_t line, std::int64_t scheduled,
                   std::size_t seq, const std::string& response,
                   std::int64_t done) {
      result.bytes += static_cast<std::int64_t>(response.size()) + 1;
      result.latency_ns.push_back(done - scheduled);
      latency_by_seq[seq] = done - scheduled;
      if (!IsErrorLine(response) && book.Record(line, response)) {
        ++result.completed;
      } else {
        ++result.failed;
      }
    });
  }
  for (const auto& conn : conns_) {
    result.failed += static_cast<std::int64_t>(conn->inflight.size());
    conn->inflight.clear();
  }
  result.scheduled_ns = std::move(at);
  // A backlog that grows under a fixed rate shows as latency that climbs
  // across the phase while requests pile up at its end.
  const std::size_t n = latency_by_seq.size();
  const std::vector<std::int64_t> second_quarter(
      latency_by_seq.begin() + static_cast<std::ptrdiff_t>(n / 4),
      latency_by_seq.begin() + static_cast<std::ptrdiff_t>(n / 2));
  const std::vector<std::int64_t> last_quarter(
      latency_by_seq.begin() + static_cast<std::ptrdiff_t>(3 * n / 4),
      latency_by_seq.end());
  result.backlog_growing =
      Median(last_quarter) > 2 * Median(second_quarter) &&
      static_cast<double>(result.outstanding_at_end) > 0.02 * rate;
  return result;
}

}  // namespace perfbench
