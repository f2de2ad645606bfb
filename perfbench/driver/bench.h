// Shared declarations of the perfbench driver: workloads, generated
// inputs, reference results and the metric record every run prints.
#ifndef PERFBENCH_DRIVER_BENCH_H_
#define PERFBENCH_DRIVER_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
#include "graph/graph_view.h"
#include "service/request.h"
#include "typing/assignment.h"
#include "typing/typing_program.h"
#include "util/statusor.h"

namespace perfbench {

using namespace schemex;  // NOLINT

/// What a request is, for metric attribution. Each kind feeds one
/// end-to-end latency metric (see kinds in OpKindName).
enum class OpKind {
  kLoad,           ///< load_workspace                    -> load_ms
  kExtract,        ///< extract with explicit k           -> extract_ms
  kAutoExtract,    ///< extract k=0 (knee sweep)          -> auto_extract_ms
  kExtractSave,    ///< extract with save_dir             -> extract_save_ms
  kQuery,          ///< guided query                      -> query_*
  kApplySwap,      ///< apply_delta, type-preserving swap -> apply_delta_ms
  kApplyGrow,      ///< apply_delta, partition-changing   -> apply_delta_ms
  kReExtractSwap,  ///< re_extract after a swap batch     -> re_extract_local_ms
  kReExtractGrow,  ///< re_extract after a grow batch     -> re_extract_ms
};
const char* OpKindName(OpKind kind);

/// Graph states a delta tenant passes through in one cycle. Every cycle
/// starts with load_workspace, so each cycle replays the same states.
enum GraphState { kBase = 0, kSwapped = 1, kGrown = 2 };

/// One request of a workload cycle.
struct Op {
  OpKind kind = OpKind::kLoad;
  int tenant = 0;        ///< index into the generated tenants
  uint64_t k = 0;        ///< extract k (0 = knee sweep)
  int state = kBase;     ///< graph state the request sees
  int query = -1;        ///< kQuery: index into the tenant's query list
  /// Counts toward its kind's latency metric. A cycle's second
  /// load_workspace (of a smaller tenant) is checked but not timed, so a
  /// metric never takes the median of two differently sized ops.
  bool timed = true;
};

/// How one tenant workspace is generated.
struct TenantSpec {
  std::string name;
  bool dbg = true;     ///< DBG spec (gen/dbg.h), else Table-1 DB1
  size_t scale = 1;    ///< object-count multiplier of the spec
  bool deltas = false; ///< build swap/grow batches for it
  uint64_t seed_k = 0; ///< extract at this k during setup (0 = none)
};

struct Workload {
  std::string name;
  std::vector<TenantSpec> tenants;  ///< per writer; Op::tenant indexes it
  std::vector<Op> cycle;       ///< each writer connection's fixed cycle
  /// Writer connections, each running `cycle` on its own copy of the
  /// tenants. Several writers keep the vCPUs busy, so a run's medians
  /// do not hinge on the speed of whichever core one thread landed on.
  size_t writers = 1;
  size_t readers = 0;          ///< concurrent query-only connections
  /// A static tenant the readers query, generated once and extracted at
  /// its seed_k during set-up. No writer touches it, so every reader
  /// query count is checked. Without one (empty name) the readers query
  /// writer 0's first tenant while it mutates, and only the envelopes
  /// are checked.
  TenantSpec query_tenant;
  OpKind headline = OpKind::kExtract;
};

/// Index of the tenant the readers query (see Workload::query_tenant).
size_t ReaderTenant(const Workload& w);
/// The spec tenant `index` was generated from.
const TenantSpec& SpecOf(const Workload& w, size_t index);

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// One generated tenant: its graph, saved workspace, queries and delta
/// batches, plus the mutated graph states used as references.
struct Tenant {
  std::string name;
  std::string dir;       ///< saved workspace, load_workspace source
  std::string save_dir;  ///< extract save_dir target
  std::shared_ptr<const graph::FrozenGraph> graph;
  size_t stage1_types = 0;
  std::vector<std::string> queries;
  std::vector<service::DeltaOp> swap_ops;
  std::vector<service::DeltaOp> grow_ops;
  /// states[s] is the graph after the batches of state s (states[0] is
  /// an empty overlay over `graph`); empty for tenants without deltas.
  std::vector<std::shared_ptr<const graph::DeltaOverlay>> states;
};

/// Generates every tenant of `w` from `seed` and writes each one's
/// workspace (graph only) into `workdir`/<name> with SaveWorkspace.
/// Writer i's copy of tenant j is at index i * w.tenants.size() + j;
/// the query tenant, if any, comes last.
util::StatusOr<std::vector<Tenant>> MakeInputs(const Workload& w,
                                               uint64_t seed,
                                               const std::string& workdir);

/// The request line for `op` (newline not included).
std::string RequestLine(int64_t id, const Op& op, const Tenant& t);

/// What an extract or re_extract response must report, computed by a
/// cold in-process SchemaExtractor::Run of the same graph.
struct Reference {
  uint64_t k = 0;
  uint64_t num_final_types = 0;
  uint64_t excess = 0;
  uint64_t deficit = 0;
  uint64_t exact = 0;
  uint64_t fallback = 0;
  typing::TypingProgram program;
  typing::TypeAssignment assignment;
};

/// Cold reference extractions, cached by (tenant, state, k).
class References {
 public:
  explicit References(const std::vector<Tenant>* tenants)
      : tenants_(tenants) {}
  /// k = 0 runs the server's knee selection (sweep + FindKnee).
  util::StatusOr<const Reference*> Get(int tenant, int state, uint64_t k);
  /// Result count of the tenant's query `query` evaluated through the
  /// schema guide of Get(tenant, state, k).
  util::StatusOr<uint64_t> QueryCount(int tenant, int state, uint64_t k,
                                      int query);

 private:
  const std::vector<Tenant>* tenants_;
  std::map<std::tuple<int, int, uint64_t>, std::unique_ptr<Reference>> refs_;
  std::map<std::tuple<int, int, uint64_t, int>, uint64_t> counts_;
};

/// The graph a tenant has in `state`.
graph::GraphView StateView(const Tenant& t, int state);

/// One printed metric.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p);

/// Wire run: spawns schemexd, sets up `setups` times (more while set-up
/// is cheap, unless `setups` is 1), drives the cycle
/// for `seconds`, checks every response. Fills end-to-end metrics and
/// the service-side per-layer metrics.
struct WireResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics end_to_end;
  Metrics service_layer;  ///< service.* metrics from the stats verb
  std::vector<std::string> errors;  ///< first few failures, for stderr
  std::vector<Tenant> tenants;      ///< inputs of the last setup
};
WireResult RunWire(const Workload& w, uint64_t seed, double seconds,
                   size_t setups, const std::string& server_bin,
                   const std::string& workdir);

/// Traced in-process replay of the same cycle. Fills per-layer metrics
/// and writes every span to `spans_path`.
struct ReplayResult {
  bool ok = true;
  uint64_t ops = 0;
  std::string error;
  Metrics layers;
};
ReplayResult RunReplay(const Workload& w, const std::vector<Tenant>& tenants,
                       double seconds, const std::string& spans_path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_BENCH_H_
