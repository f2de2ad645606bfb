#ifndef SCHEMEX_SERVICE_TCP_SERVER_H_
#define SCHEMEX_SERVICE_TCP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/server.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace schemex::service {

struct TcpServerOptions {
  /// Address to bind; loopback by default so a test or dev instance is
  /// not reachable from off-host unless asked for ("0.0.0.0").
  std::string bind_address = "127.0.0.1";
  /// Port to listen on; 0 picks an ephemeral port (read it back via
  /// port(), e.g. for tests).
  uint16_t port = 0;
  int backlog = 128;
  /// Connections beyond this are accepted and immediately closed, so the
  /// kernel backlog cannot silently park unbounded clients.
  size_t max_connections = 1024;
  /// Per-line cap handed to the shared Framer (0 = unlimited).
  size_t max_line_bytes = 1 << 20;
  /// Close a connection with no traffic and no in-flight requests after
  /// this long (0 = never). Doubles as the read timeout: a client that
  /// stalls mid-line is dropped once the budget elapses.
  double idle_timeout_s = 300.0;
  /// Graceful-shutdown budget: how long Shutdown() lets in-flight
  /// requests finish and responses flush before force-closing.
  double drain_timeout_s = 10.0;
};

/// TCP front end for the schemexd dispatcher.
///
/// One background thread runs a poll()/accept() loop over non-blocking
/// sockets. Each connection owns a `Framer` (the same NDJSON framing the
/// stdio path uses); complete lines are parsed and dispatched onto the
/// shared `Server` via HandleAsync, so the worker pool, the
/// workspace-snapshot cache, per-request deadlines, and FrozenGraph
/// sharing all behave exactly as they do over stdin/stdout. Responses
/// come back in completion order per connection — clients correlate by
/// "id" — and connections never see each other's responses.
///
/// Socket lifecycle (accept, read, close) stays on the poll thread. A
/// pool worker sends its own response under the connection's mutex, so
/// a reply never waits for a poll-loop round trip; only the tail of a
/// partial write stays in the per-connection outbox for POLLOUT, and
/// then (or when the reply lets a half-closed connection be reaped) the
/// worker wakes the poll thread through a self-pipe. A connection that
/// dies with requests in flight simply drops their late responses.
///
/// Transport counters (tcp.connections_accepted / _open / _refused,
/// tcp.bytes_in / _out, tcp.lines_rejected, tcp.responses_dropped) are
/// folded into the server's MetricsRegistry and show up under the stats
/// verb's "counters" object.
///
/// Shutdown() (also run by the destructor) drains gracefully: the
/// listener closes, reads stop, in-flight requests run to completion and
/// their responses are flushed, bounded by `drain_timeout_s`.
class TcpServer {
 public:
  /// `server` must outlive this object.
  TcpServer(Server* server, const TcpServerOptions& options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the poll thread. Fails (without leaking
  /// fds) if the address cannot be bound.
  util::Status Start();

  /// The actual bound port (after Start); useful with `port = 0`.
  uint16_t port() const { return port_; }

  /// True between a successful Start() and Shutdown().
  bool running() const { return running_.load(); }

  /// Connections currently open (poll-thread snapshot, approximate).
  size_t open_connections() const { return open_connections_.load(); }

  /// Graceful drain, then join the poll thread. Idempotent and safe to
  /// call concurrently from any thread except the poll thread itself;
  /// every caller returns only after the poll thread has exited.
  void Shutdown() SCHEMEX_EXCLUDES(join_mu_);

 private:
  struct Connection;
  /// State a pool-worker callback may outlive the TcpServer through: the
  /// wake pipe's write end, invalidated under the mutex at shutdown.
  struct WakeHandle;

  void Loop();
  void AcceptNew();
  /// Reads everything available; frames, parses, and dispatches lines.
  void ReadFrom(const std::shared_ptr<Connection>& conn);
  void DispatchLines(const std::shared_ptr<Connection>& conn);
  void EnqueueResponse(const std::shared_ptr<Connection>& conn,
                       std::string line);
  /// Flushes as much of the outbox as the socket accepts right now (the
  /// POLLOUT half of Connection::FlushLocked).
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void Wake();

  Server* server_;
  TcpServerOptions options_;
  MetricsRegistry* metrics_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  std::shared_ptr<WakeHandle> wake_;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<size_t> open_connections_{0};

  // Owned and touched by the poll thread only.
  std::vector<std::shared_ptr<Connection>> conns_;

  /// Serializes concurrent Shutdown callers around the join, so the
  /// loser never races the winner on loop_thread_.
  util::Mutex join_mu_;
  std::thread loop_thread_ SCHEMEX_GUARDED_BY(join_mu_);
};

}  // namespace schemex::service

#endif  // SCHEMEX_SERVICE_TCP_SERVER_H_
