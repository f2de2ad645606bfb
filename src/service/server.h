#ifndef SCHEMEX_SERVICE_SERVER_H_
#define SCHEMEX_SERVICE_SERVER_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/workspace.h"
#include "query/query_index.h"
#include "service/metrics.h"
#include "service/request.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace schemex::service {

struct ServerOptions {
  /// Worker threads handling requests.
  size_t num_threads = 4;
  /// Wall-clock budget applied when a request does not set timeout_s.
  /// 0 disables the default (requests may still set their own).
  double default_timeout_s = 60.0;
};

/// The schemexd dispatcher: a long-lived, concurrent schema service.
///
/// Workspaces live in a read-mostly cache keyed by name. Each entry is an
/// immutable published generation (a workspace snapshot); a
/// `shared_mutex` guards only the map. Readers (query/type/list) take the
/// shared lock just long enough to copy the pointer and then evaluate
/// lock-free on the snapshot; writers (load/extract/type-commit) build
/// the replacement workspace off-lock and swap it in under the exclusive
/// lock. A query racing a re-extract therefore always sees a consistent
/// workspace — either the old one or the new one, never a mix. The first
/// guided query of a generation builds that generation's
/// query::QueryIndex, once and off the lock; later queries share it.
///
/// Requests are routed onto a fixed ThreadPool. Timeouts are enforced at
/// three points: a request that out-waits its budget in the queue fails
/// without executing, the extract pipeline and the query step loop poll
/// their deadline and abort with kDeadlineExceeded, and the synchronous
/// Handle() stops waiting once the budget elapses (the worker then
/// discards its late result).
class Server {
 public:
  explicit Server(const ServerOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Dispatches onto the pool and blocks for the response, enforcing the
  /// request's wall-clock budget. Thread-safe; concurrent callers simply
  /// become concurrent requests.
  Response Handle(const Request& req);

  /// Parses one newline-delimited JSON request, dispatches it, and
  /// serializes the response. Malformed input yields a structured error
  /// response (id 0 when the id could not be parsed).
  std::string HandleJsonLine(const std::string& line);

  /// Fire-and-forget dispatch; `done` runs on a pool worker after the
  /// handler (or queue-deadline rejection) finishes.
  void HandleAsync(Request req, std::function<void(Response)> done);

  /// Installs (or replaces) a workspace directly — the programmatic
  /// equivalent of load_workspace, used by tests and --workspace preloads.
  util::Status InstallWorkspace(const std::string& name,
                                catalog::Workspace ws);

  /// Names of cached workspaces, sorted.
  std::vector<std::string> WorkspaceNames() const SCHEMEX_EXCLUDES(cache_mu_);

  const ServerOptions& options() const { return options_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Registry handle for transport front ends (the TCP listener folds its
  /// connection/byte counters into the same registry the verbs use, so
  /// one `stats` request covers both).
  MetricsRegistry& mutable_metrics() { return metrics_; }

 private:
  using Clock = std::chrono::steady_clock;
  using WorkspacePtr = std::shared_ptr<const catalog::Workspace>;

  /// One published workspace generation plus its lazily built query
  /// index (defined in server.cc).
  struct Generation;
  using GenerationPtr = std::shared_ptr<const Generation>;

  /// Resolves the effective budget for a request (0 = unlimited).
  double EffectiveTimeout(const Request& req) const;

  /// The worker's half of Handle/HandleAsync: fails a request that
  /// out-waited its budget in the queue, otherwise dispatches it with the
  /// absolute deadline `arrival + timeout_s`.
  Response Execute(const Request& req, Clock::time_point arrival,
                   double timeout_s);

  /// Folds one request's outcome into its verb's latency histogram.
  void RecordOutcome(const Request& req, double latency_ms,
                     const util::Status& status);

  /// Runs the verb handler (on a pool worker). `deadline` is the absolute
  /// point at which the request's budget expires (`Clock::time_point::max()`
  /// = unlimited); long-running handlers poll it cooperatively.
  util::StatusOr<json::Value> Dispatch(const Request& req,
                                       Clock::time_point deadline);

  util::StatusOr<json::Value> HandleLoadWorkspace(const LoadWorkspaceParams& p);
  util::StatusOr<json::Value> HandleExtract(const ExtractParams& p,
                                            Clock::time_point deadline);
  util::StatusOr<json::Value> HandleType(const TypeParams& p);
  util::StatusOr<json::Value> HandleQuery(const QueryParams& p,
                                          Clock::time_point deadline);
  util::StatusOr<json::Value> HandleStats();
  util::StatusOr<json::Value> HandleListWorkspaces();
  util::StatusOr<json::Value> HandleApplyDelta(const ApplyDeltaParams& p);
  util::StatusOr<json::Value> HandleReExtract(const ReExtractParams& p,
                                              Clock::time_point deadline);

  /// Snapshot of a cache entry (shared lock held only for the map read).
  util::StatusOr<GenerationPtr> GetGeneration(const std::string& name) const
      SCHEMEX_EXCLUDES(cache_mu_);

  /// The workspace of GetGeneration's entry; the pointer keeps the whole
  /// generation alive.
  util::StatusOr<WorkspacePtr> GetWorkspace(const std::string& name) const
      SCHEMEX_EXCLUDES(cache_mu_);

  /// `gen`'s query index, built by the first caller (others wait for it)
  /// and counted in the query.index_builds / query.index_build_us
  /// counters. Callers hold no lock.
  const query::QueryIndex& IndexFor(const Generation& gen)
      SCHEMEX_EXCLUDES(cache_mu_);

  /// Swaps `ws` in under the exclusive lock; the replaced generation is
  /// released after unlocking, so freeing it never stalls readers.
  void PutWorkspace(const std::string& name, catalog::Workspace ws)
      SCHEMEX_EXCLUDES(cache_mu_);

  ServerOptions options_;
  MetricsRegistry metrics_;

  mutable util::SharedMutex cache_mu_;
  std::map<std::string, GenerationPtr> cache_ SCHEMEX_GUARDED_BY(cache_mu_);

  // Last member: destroyed (joined) first, so in-flight workers never
  // touch an already-destroyed cache or registry.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace schemex::service

#endif  // SCHEMEX_SERVICE_SERVER_H_
