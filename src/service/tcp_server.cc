#include "service/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "service/framer.h"
#include "service/request.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace schemex::service {

namespace {

using Clock = std::chrono::steady_clock;

util::Status ErrnoStatus(const char* what) {
  return util::Status::Internal(
      util::StringPrintf("%s: %s", what, std::strerror(errno)));
}

bool SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

/// Per-connection state. The poll thread owns the fd's lifecycle and the
/// framer; `mu` guards everything both the poll thread and pool workers
/// touch (outbox, in_flight, closed, read_closed, last_activity) and
/// serializes the sends of both.
struct TcpServer::Connection {
  int fd = -1;  ///< set once before the connection is published
  Framer framer;  ///< poll-thread only

  util::Mutex mu;
  std::string outbox SCHEMEX_GUARDED_BY(mu);  ///< responses awaiting write
  size_t in_flight SCHEMEX_GUARDED_BY(mu) =
      0;  ///< dispatched requests without a response yet
  bool closed SCHEMEX_GUARDED_BY(mu) =
      false;  ///< fd closed; late responses are dropped
  /// Peer EOF or drain: no more requests framed. Set by the poll thread;
  /// a worker reads it to tell whether its reply lets the reaper close.
  bool read_closed SCHEMEX_GUARDED_BY(mu) = false;
  /// Both the poll thread (reads, idle sweep) and pool workers (flushes)
  /// stamp activity, so the timestamp shares the connection mutex.
  Clock::time_point last_activity SCHEMEX_GUARDED_BY(mu);

  explicit Connection(const FramerOptions& fopt)
      : framer(fopt), last_activity(Clock::now()) {}

  /// Sends as much of the outbox as the socket takes without blocking,
  /// from whichever thread holds `mu`. Returns true if bytes remain; they
  /// wait for POLLOUT on the poll thread. A peer that vanished mid-write
  /// gets the rest dropped; the poll loop reaps it on POLLERR/POLLHUP.
  bool FlushLocked(MetricsRegistry* metrics) SCHEMEX_REQUIRES(mu) {
    while (!closed && !outbox.empty()) {
      ssize_t n = ::send(fd, outbox.data(), outbox.size(), MSG_NOSIGNAL);
      if (n > 0) {
        metrics->AddCounter("tcp.bytes_out", n);
        outbox.erase(0, static_cast<size_t>(n));
        last_activity = Clock::now();
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      outbox.clear();
      break;
    }
    return !closed && !outbox.empty();
  }
};

struct TcpServer::WakeHandle {
  util::Mutex mu;
  int write_fd SCHEMEX_GUARDED_BY(mu) = -1;  ///< -1 once the server shut down
};

TcpServer::TcpServer(Server* server, const TcpServerOptions& options)
    : server_(server),
      options_(options),
      metrics_(&server->mutable_metrics()) {}

TcpServer::~TcpServer() { Shutdown(); }

util::Status TcpServer::Start() {
  if (running_.load()) {
    return util::Status::FailedPrecondition("TcpServer already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return util::Status::InvalidArgument("bad bind address \"" +
                                         options_.bind_address + "\"");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    util::Status st = ErrnoStatus("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, options_.backlog) != 0) {
    util::Status st = ErrnoStatus("listen");
    ::close(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    util::Status st = ErrnoStatus("getsockname");
    ::close(fd);
    return st;
  }
  if (!SetNonBlocking(fd)) {
    util::Status st = ErrnoStatus("fcntl(listener O_NONBLOCK)");
    ::close(fd);
    return st;
  }

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    util::Status st = ErrnoStatus("pipe2");
    ::close(fd);
    return st;
  }

  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  wake_read_fd_ = pipe_fds[0];
  wake_ = std::make_shared<WakeHandle>();
  wake_->write_fd = pipe_fds[1];
  draining_.store(false);
  stopped_.store(false);
  running_.store(true);
  {
    util::MutexLock lock(join_mu_);
    loop_thread_ = std::thread([this] { Loop(); });
  }
  return util::Status::OK();
}

void TcpServer::Shutdown() {
  // The CAS elects one winner to drive the drain; every caller (winner
  // or not) still serializes on join_mu_ below, so concurrent Shutdown
  // never races on the thread object and nobody returns before the poll
  // thread is gone.
  bool expected = false;
  const bool winner = stopped_.compare_exchange_strong(expected, true);
  if (!running_.load()) return;  // never started: nothing to drain
  if (winner) {
    draining_.store(true);
    Wake();
  }
  {
    util::MutexLock lock(join_mu_);
    if (loop_thread_.joinable()) loop_thread_.join();
  }
  if (!winner) return;

  // Invalidate the wake pipe under the handle's lock so a pool worker
  // completing after this point writes nowhere instead of into a
  // recycled fd.
  int wfd = -1;
  {
    util::MutexLock lock(wake_->mu);
    wfd = wake_->write_fd;
    wake_->write_fd = -1;
  }
  if (wfd >= 0) ::close(wfd);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  wake_read_fd_ = listen_fd_ = -1;
  running_.store(false);
}

void TcpServer::Wake() {
  util::MutexLock lock(wake_->mu);
  if (wake_->write_fd >= 0) {
    char b = 0;
    // A full pipe already guarantees a wake-up; ignore EAGAIN.
    [[maybe_unused]] ssize_t n = ::write(wake_->write_fd, &b, 1);
  }
}

void TcpServer::EnqueueResponse(const std::shared_ptr<Connection>& conn,
                                std::string line) {
  line.push_back('\n');
  util::MutexLock lock(conn->mu);
  if (conn->closed) return;
  conn->outbox += line;
  // On the poll thread: whatever the socket does not take now gets
  // POLLOUT when the loop next builds its poll set.
  conn->FlushLocked(metrics_);
}

void TcpServer::FlushWrites(const std::shared_ptr<Connection>& conn) {
  util::MutexLock lock(conn->mu);
  conn->FlushLocked(metrics_);
}

void TcpServer::CloseConnection(const std::shared_ptr<Connection>& conn) {
  size_t dropped = 0;
  {
    util::MutexLock lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    dropped = conn->in_flight;
    conn->outbox.clear();
    ::close(conn->fd);
  }
  if (dropped > 0) {
    metrics_->AddCounter("tcp.responses_dropped",
                         static_cast<int64_t>(dropped));
  }
  metrics_->AddCounter("tcp.connections_open", -1);
  open_connections_.fetch_sub(1);
}

void TcpServer::AcceptNew() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient accept error: try later
    if (draining_.load() || conns_.size() >= options_.max_connections) {
      metrics_->AddCounter("tcp.connections_refused", 1);
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    FramerOptions fopt;
    fopt.max_line_bytes = options_.max_line_bytes;
    auto conn = std::make_shared<Connection>(fopt);
    conn->fd = fd;
    conns_.push_back(conn);
    metrics_->AddCounter("tcp.connections_accepted", 1);
    metrics_->AddCounter("tcp.connections_open", 1);
    open_connections_.fetch_add(1);
  }
}

void TcpServer::DispatchLines(const std::shared_ptr<Connection>& conn) {
  util::StatusOr<std::string> line = std::string();
  while (conn->framer.Next(&line)) {
    if (!line.ok()) {
      // Framing violation (oversized / embedded NUL): structured error
      // with id 0, exactly like a malformed JSON line.
      metrics_->AddCounter("tcp.lines_rejected", 1);
      metrics_->Record("invalid", 0.0, /*ok=*/false, /*timeout=*/false);
      Response resp;
      resp.status = line.status();
      EnqueueResponse(conn, SerializeResponse(resp));
      continue;
    }
    auto req = ParseRequestJson(*line);
    if (!req.ok()) {
      metrics_->AddCounter("tcp.lines_rejected", 1);
      metrics_->Record("invalid", 0.0, /*ok=*/false, /*timeout=*/false);
      Response resp;
      resp.status = req.status();
      EnqueueResponse(conn, SerializeResponse(resp));
      continue;
    }
    {
      util::MutexLock lock(conn->mu);
      ++conn->in_flight;
    }
    // The callback runs on a pool worker and may outlive the TcpServer:
    // it only touches the connection (kept alive by the shared_ptr), the
    // wake handle (invalidated under its lock at shutdown), and the
    // server's metrics (the Server joins its pool before destruction).
    // The worker sends its own reply; it wakes the poll thread only when
    // a partial write needs POLLOUT or the reply lets a half-closed
    // connection be reaped.
    auto wake = wake_;
    MetricsRegistry* metrics = metrics_;
    server_->HandleAsync(
        *std::move(req), [conn, wake, metrics](Response resp) {
          std::string out = SerializeResponse(resp);
          out.push_back('\n');
          bool dropped = false;
          bool nudge = false;
          {
            util::MutexLock lock(conn->mu);
            --conn->in_flight;
            if (conn->closed) {
              dropped = true;
            } else {
              conn->outbox += out;
              nudge = conn->FlushLocked(metrics) ||
                      (conn->read_closed && conn->in_flight == 0);
            }
          }
          if (dropped) metrics->AddCounter("tcp.responses_dropped", 1);
          if (!nudge) return;
          util::MutexLock lock(wake->mu);
          if (wake->write_fd >= 0) {
            char b = 0;
            [[maybe_unused]] ssize_t n = ::write(wake->write_fd, &b, 1);
          }
        });
  }
}

void TcpServer::ReadFrom(const std::shared_ptr<Connection>& conn) {
  char buf[16 * 1024];
  size_t total = 0;
  auto end_reads = [&conn] {
    conn->framer.Finish();
    util::MutexLock lock(conn->mu);
    conn->read_closed = true;
  };
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      metrics_->AddCounter("tcp.bytes_in", n);
      {
        // A pool worker flushing this connection's outbox stamps
        // last_activity concurrently, so the poll thread must take the
        // lock too (TSan catches the unlocked variant).
        util::MutexLock lock(conn->mu);
        conn->last_activity = Clock::now();
      }
      conn->framer.Feed(std::string_view(buf, static_cast<size_t>(n)));
      total += static_cast<size_t>(n);
      // Cap per-iteration reads so one fire-hose client cannot starve
      // the rest of the loop; level-triggered poll() reports the socket
      // readable again next round.
      if (total >= 256 * 1024) break;
      continue;
    }
    if (n == 0) {
      // Peer half-closed: a final unterminated line still counts.
      end_reads();
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // Hard receive error: treat as an abortive disconnect.
    end_reads();
    break;
  }
  DispatchLines(conn);
}

void TcpServer::Loop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Connection>> polled;
  bool drain_seen = false;
  Clock::time_point drain_deadline{};

  for (;;) {
    const bool draining = draining_.load();
    if (draining && !drain_seen) {
      drain_seen = true;
      drain_deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 std::max(0.0, options_.drain_timeout_s)));
      // Stop reading everywhere: in-flight work finishes, new requests
      // (even ones already buffered but unframed) are not admitted.
      for (auto& c : conns_) {
        util::MutexLock lock(c->mu);
        c->read_closed = true;
      }
    }

    fds.clear();
    polled.clear();
    fds.push_back({wake_read_fd_, POLLIN, 0});
    const bool accepting = !draining;
    if (accepting) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& c : conns_) {
      short events = 0;
      {
        util::MutexLock lock(c->mu);
        if (!c->read_closed) events |= POLLIN;
        if (!c->outbox.empty()) events |= POLLOUT;
      }
      fds.push_back({c->fd, events, 0});
      polled.push_back(c);
    }

    // Finite timeout: it bounds the idle sweep and the drain deadline
    // check even when no fd fires.
    const int timeout_ms = draining ? 10 : 100;
    int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    if (rc < 0 && errno != EINTR && errno != EAGAIN) break;

    size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      char drain_buf[256];
      while (::read(wake_read_fd_, drain_buf, sizeof(drain_buf)) > 0) {
      }
    }
    ++idx;
    if (accepting) {
      if (fds[idx].revents & POLLIN) AcceptNew();
      ++idx;
    }

    for (size_t i = 0; i < polled.size(); ++i, ++idx) {
      const auto& conn = polled[i];
      const short re = fds[idx].revents;
      if (re & POLLERR) {
        // Abortive disconnect; POLLHUP alone still allows reading the
        // tail the peer sent before closing, so only POLLERR is fatal.
        CloseConnection(conn);
        continue;
      }
      if (re & (POLLIN | POLLHUP)) ReadFrom(conn);
      if (re & POLLOUT) FlushWrites(conn);
    }

    // Reap: a connection is done when reads ended and every dispatched
    // request has flushed its response. Idle connections (no traffic, no
    // work) hit the idle/read timeout.
    const Clock::time_point now = Clock::now();
    for (auto& conn : conns_) {
      bool done = false;
      bool idle = false;
      {
        util::MutexLock lock(conn->mu);
        if (conn->closed) continue;
        const bool quiescent = conn->in_flight == 0 && conn->outbox.empty();
        done = conn->read_closed && quiescent;
        idle = !draining && quiescent && options_.idle_timeout_s > 0 &&
               std::chrono::duration<double>(now - conn->last_activity)
                       .count() > options_.idle_timeout_s;
      }
      if (done || idle) CloseConnection(conn);
    }
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::shared_ptr<Connection>& c) {
                                  util::MutexLock lock(c->mu);
                                  return c->closed;
                                }),
                 conns_.end());

    if (draining) {
      if (conns_.empty()) break;
      if (now >= drain_deadline) {
        // Budget blown: force-close; stragglers' responses are dropped.
        for (auto& conn : conns_) CloseConnection(conn);
        conns_.clear();
        break;
      }
    }
  }
}

}  // namespace schemex::service
