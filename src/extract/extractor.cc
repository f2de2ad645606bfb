#include "extract/extractor.h"

#include <algorithm>
#include <utility>

#include "extract/pipeline_internal.h"
#include "util/timer.h"

namespace schemex::extract {

namespace internal {

using typing::TypeId;

util::StatusOr<typing::PerfectTypingResult> RunStage1(
    const ExtractorOptions& options, graph::GraphView g) {
  typing::ExecOptions exec;
  exec.check_cancel = options.check_cancel;
  if (options.stage1 == ExtractorOptions::Stage1Algorithm::kGfp) {
    return typing::PerfectTypingViaGfp(g, exec);
  }
  return typing::PerfectTypingViaHashRefinement(g, exec);
}

PreClusterState PrepareForClustering(const ExtractorOptions& options,
                                     const typing::PerfectTypingResult& perfect,
                                     typing::RoleDecomposition* roles,
                                     bool* roles_applied) {
  PreClusterState state;
  if (options.decompose_roles) {
    *roles = typing::DecomposeRoles(perfect.program);
    *roles_applied = true;
    state.program = roles->program;
    state.homes = roles->MapHomes(perfect.home);
  } else {
    state.program = perfect.program;
    state.homes.resize(perfect.home.size());
    for (size_t o = 0; o < perfect.home.size(); ++o) {
      if (perfect.home[o] != typing::kInvalidType) {
        state.homes[o] = {perfect.home[o]};
      }
    }
  }
  state.weights.assign(state.program.NumTypes(), 0);
  for (const auto& hs : state.homes) {
    for (TypeId t : hs) ++state.weights[static_cast<size_t>(t)];
  }
  return state;
}

std::vector<std::vector<TypeId>> MapHomesThrough(
    const std::vector<std::vector<TypeId>>& homes,
    const std::vector<TypeId>& map) {
  std::vector<std::vector<TypeId>> out(homes.size());
  for (size_t o = 0; o < homes.size(); ++o) {
    for (TypeId t : homes[o]) {
      TypeId m = map[static_cast<size_t>(t)];
      if (m != cluster::kEmptyType) out[o].push_back(m);
    }
    std::sort(out[o].begin(), out[o].end());
    out[o].erase(std::unique(out[o].begin(), out[o].end()), out[o].end());
  }
  return out;
}

util::Status PollCancel(const std::function<util::Status()>& check_cancel) {
  return check_cancel ? check_cancel() : util::Status::OK();
}

util::StatusOr<ExtractionResult> FinishExtraction(
    const ExtractorOptions& options, graph::GraphView g,
    typing::PerfectTypingResult perfect, const Stage2Reuse* reuse,
    bool* stage2_reused) {
  typing::ExecOptions exec;
  exec.check_cancel = options.check_cancel;
  ExtractionResult result;
  result.perfect = std::move(perfect);
  result.num_perfect_types = result.perfect.program.NumTypes();
  if (stage2_reused) *stage2_reused = false;

  PreClusterState state = PrepareForClustering(
      options, result.perfect, &result.roles, &result.roles_applied);

  // Stage 2.
  util::WallTimer stage_timer;
  const bool stage2 = options.target_num_types > 0 &&
                      options.target_num_types < state.program.NumTypes();
  if (stage2) {
    if (reuse != nullptr && reuse->program != nullptr &&
        *reuse->program == state.program && *reuse->weights == state.weights) {
      // Identical inputs (and, per the caller's contract, identical
      // clustering options) mean re-running greedy clustering would
      // reproduce the cached result verbatim — adopt it instead. This
      // is the incremental hot path: Stage 2 dominates cold extraction
      // cost, and a delta that leaves the perfect typing unchanged
      // skips it entirely.
      result.clustering = *reuse->clustering;
      if (stage2_reused) *stage2_reused = true;
    } else {
      cluster::ClusteringOptions copt;
      copt.psi = options.psi;
      copt.target_num_types = options.target_num_types;
      copt.enable_empty_type = options.enable_empty_type;
      SCHEMEX_ASSIGN_OR_RETURN(
          result.clustering,
          cluster::ClusterTypes(state.program, state.weights, copt, exec));
    }
    result.timings.cluster_ms = stage_timer.ElapsedMillis();
  }

  // Stage 3, timed from mapping the homes through the clustering (linear
  // in objects) to the end of the defect measurement.
  stage_timer.Restart();
  if (stage2) {
    result.clustering_applied = true;
    result.final_program = result.clustering.final_program;
    result.final_homes =
        MapHomesThrough(state.homes, result.clustering.final_map);
  } else {
    result.final_program = state.program;
    result.final_homes = state.homes;
  }
  result.num_final_types = result.final_program.NumTypes();
  SCHEMEX_RETURN_IF_ERROR(PollCancel(options.check_cancel));
  SCHEMEX_ASSIGN_OR_RETURN(
      result.recast, typing::Recast(result.final_program, g,
                                    result.final_homes, options.recast, exec));

  result.defect =
      typing::ComputeDefect(result.final_program, g, result.recast.assignment);
  result.timings.recast_ms = stage_timer.ElapsedMillis();
  return result;
}

}  // namespace internal

util::StatusOr<ExtractionResult> SchemaExtractor::Run(
    graph::GraphView g) const {
  util::WallTimer total_timer;

  // Stage 1.
  util::WallTimer stage_timer;
  typing::PerfectTypingResult perfect;
  SCHEMEX_ASSIGN_OR_RETURN(perfect, internal::RunStage1(options_, g));
  double stage1_ms = stage_timer.ElapsedMillis();
  SCHEMEX_RETURN_IF_ERROR(internal::PollCancel(options_.check_cancel));

  SCHEMEX_ASSIGN_OR_RETURN(
      ExtractionResult result,
      internal::FinishExtraction(options_, g, std::move(perfect)));
  result.timings.stage1_ms = stage1_ms;
  result.timings.total_ms = total_timer.ElapsedMillis();
  return result;
}

util::StatusOr<std::vector<SensitivityPoint>> SensitivitySweep(
    graph::GraphView g, const ExtractorOptions& options, size_t min_k,
    size_t max_k) {
  using internal::MapHomesThrough;
  using internal::PollCancel;
  using internal::PreClusterState;
  using typing::TypeId;

  // Stage 1 once.
  typing::PerfectTypingResult perfect;
  SCHEMEX_ASSIGN_OR_RETURN(perfect, internal::RunStage1(options, g));
  SCHEMEX_RETURN_IF_ERROR(PollCancel(options.check_cancel));
  typing::RoleDecomposition roles;
  bool roles_applied = false;
  PreClusterState state =
      internal::PrepareForClustering(options, perfect, &roles, &roles_applied);

  // Stage 2 once, all the way down, recording the snapshots at k <= max_k.
  typing::ExecOptions exec;
  exec.check_cancel = options.check_cancel;
  cluster::ClusteringOptions copt;
  copt.psi = options.psi;
  copt.target_num_types = std::max<size_t>(min_k, 1);
  copt.enable_empty_type = options.enable_empty_type;
  copt.record_snapshots = true;
  copt.max_snapshot_types = max_k;
  SCHEMEX_ASSIGN_OR_RETURN(
      cluster::ClusteringResult clustering,
      cluster::ClusterTypes(state.program, state.weights, copt, exec));

  // Stage 3 + defect per snapshot.
  std::vector<SensitivityPoint> points;
  points.reserve(clustering.snapshots.size());
  for (const cluster::Snapshot& snap : clustering.snapshots) {
    SCHEMEX_RETURN_IF_ERROR(PollCancel(options.check_cancel));
    std::vector<std::vector<TypeId>> homes =
        MapHomesThrough(state.homes, snap.stage1_to_snapshot);
    SCHEMEX_ASSIGN_OR_RETURN(
        typing::RecastResult recast,
        typing::Recast(snap.program, g, homes, options.recast, exec));
    typing::DefectReport defect =
        typing::ComputeDefect(snap.program, g, recast.assignment);
    points.push_back(SensitivityPoint{snap.num_types, snap.total_distance,
                                      defect.excess, defect.deficit,
                                      defect.defect()});
  }
  return points;
}

}  // namespace schemex::extract
