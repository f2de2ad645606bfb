#include "extract/knee.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "extract/pipeline_internal.h"
#include "util/timer.h"

namespace schemex::extract {

namespace {

bool InRange(const SensitivityPoint& p, const KneeOptions& options) {
  return options.max_types == 0 || p.k <= options.max_types;
}

}  // namespace

Knee FindKnee(const std::vector<SensitivityPoint>& points,
              const KneeOptions& options) {
  Knee knee;
  size_t best = std::numeric_limits<size_t>::max();
  for (const SensitivityPoint& p : points) {
    if (InRange(p, options)) best = std::min(best, p.defect);
  }
  if (best == std::numeric_limits<size_t>::max()) return knee;  // empty
  knee.best_defect_in_range = best;
  double cap = static_cast<double>(best) * options.tolerance;
  size_t chosen_k = std::numeric_limits<size_t>::max();
  size_t chosen_defect = 0;
  for (const SensitivityPoint& p : points) {
    if (!InRange(p, options)) continue;
    if (static_cast<double>(p.defect) <= cap && p.k < chosen_k) {
      chosen_k = p.k;
      chosen_defect = p.defect;
    }
  }
  knee.k = chosen_k;
  knee.defect = chosen_defect;
  return knee;
}

std::vector<size_t> NaturalTypeCounts(
    const std::vector<SensitivityPoint>& points, const KneeOptions& options) {
  Knee knee = FindKnee(points, options);
  std::vector<size_t> out;
  if (knee.k == 0) return out;
  double cap =
      static_cast<double>(knee.best_defect_in_range) * options.tolerance;
  for (const SensitivityPoint& p : points) {
    if (InRange(p, options) && static_cast<double>(p.defect) <= cap) {
      out.push_back(p.k);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// The sweep's one pass: Stage 1 and the roles pass, one ClusterTypes
/// ladder down to k = 1 recording the snapshots at k <= max_k (0 = every
/// k), the quotient, a class-level recast + defect per snapshot on it,
/// and with `knee` set the knee's extraction, finished from the ladder's
/// rung at that k on the same quotient.
util::StatusOr<KneeExtraction> Sweep(graph::GraphView g,
                                     const ExtractorOptions& options,
                                     size_t max_k, const KneeOptions* knee) {
  util::WallTimer total_timer;
  KneeExtraction out;
  StageTimings& timings = out.result.timings;
  util::WallTimer stage_timer;
  std::vector<typing::TypeId> classes;
  SCHEMEX_ASSIGN_OR_RETURN(typing::PerfectTypingResult perfect,
                           internal::RunStage1(options, g, &classes));
  timings.stage1_ms = stage_timer.ElapsedMillis();
  const internal::PreClusterState state = internal::PrepareForClustering(
      options, std::move(perfect), std::move(classes), &out.result);

  stage_timer.Restart();
  const typing::ExecOptions exec{.check_cancel = options.check_cancel};
  SCHEMEX_ASSIGN_OR_RETURN(
      cluster::ClusteringResult ladder,
      cluster::ClusterTypes(state.program, state.weights,
                            {.psi = options.psi,
                             .target_num_types = 1,
                             .enable_empty_type = options.enable_empty_type,
                             .record_snapshots = true,
                             .max_snapshot_types = max_k},
                            exec));
  timings.cluster_ms = stage_timer.ElapsedMillis();

  stage_timer.Restart();
  SCHEMEX_ASSIGN_OR_RETURN(const typing::Quotient quotient,
                           typing::BuildQuotient(g, state.classes));
  for (const cluster::Snapshot& snap : ladder.snapshots) {
    SCHEMEX_RETURN_IF_ERROR(exec.Poll());
    SCHEMEX_ASSIGN_OR_RETURN(
        typing::QuotientRecast recast,
        typing::RecastQuotient(
            snap.program, g, quotient,
            internal::MapHomesThrough(state.homes, snap.stage1_to_snapshot),
            options.recast, exec));
    if (recast.per_object_fallback) ++out.per_object_points;
    const typing::DefectReport& d = recast.defect;
    out.points.push_back(SensitivityPoint{snap.num_types, snap.total_distance,
                                          d.excess, d.deficit, d.defect()});
  }
  if (knee == nullptr) return out;
  out.knee = FindKnee(out.points, *knee);
  timings.sweep_ms = stage_timer.ElapsedMillis();

  // Adopt the ladder's rung at the knee; the other snapshots go with it.
  ExtractorOptions at_knee = options;
  at_knee.target_num_types = out.knee.k;
  std::optional<cluster::ClusteringResult> rung;
  for (cluster::Snapshot& snap : ladder.snapshots) {
    if (snap.num_types != out.knee.k) continue;
    rung =
        cluster::ClusteringAtSnapshot(ladder, std::move(snap), state.weights);
  }
  SCHEMEX_RETURN_IF_ERROR(internal::FinishExtraction(
      at_knee, g, state, std::move(rung), &quotient, &out.result));
  timings.total_ms = total_timer.ElapsedMillis();
  return out;
}

}  // namespace

util::StatusOr<std::vector<SensitivityPoint>> SensitivitySweep(
    graph::GraphView g, const ExtractorOptions& options, size_t max_k) {
  SCHEMEX_ASSIGN_OR_RETURN(KneeExtraction sweep,
                           Sweep(g, options, max_k, /*knee=*/nullptr));
  return std::move(sweep.points);
}

util::StatusOr<KneeExtraction> ExtractAtKnee(
    graph::GraphView g, const ExtractorOptions& options,
    const KneeOptions& knee_options) {
  return Sweep(g, options, knee_options.max_types, &knee_options);
}

}  // namespace schemex::extract
