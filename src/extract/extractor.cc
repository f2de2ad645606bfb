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
  const typing::ExecOptions exec{.check_cancel = options.check_cancel};
  SCHEMEX_ASSIGN_OR_RETURN(
      typing::PerfectTypingResult perfect,
      options.stage1 == ExtractorOptions::Stage1Algorithm::kGfp
          ? typing::PerfectTypingViaGfp(g, exec)
          : typing::PerfectTypingViaHashRefinement(g, exec));
  SCHEMEX_RETURN_IF_ERROR(exec.Poll());
  return perfect;
}

PreClusterState PrepareForClustering(const ExtractorOptions& options,
                                     typing::PerfectTypingResult perfect,
                                     ExtractionResult* result) {
  result->perfect = std::move(perfect);
  result->num_perfect_types = result->perfect.program.NumTypes();
  const typing::PerfectTypingResult& p = result->perfect;
  PreClusterState state;
  if (options.decompose_roles) {
    result->roles = typing::DecomposeRoles(p.program);
    result->roles_applied = true;
    state.program = result->roles.program;
    state.homes = result->roles.MapHomes(p.home);
  } else {
    state.program = p.program;
    state.homes.resize(p.home.size());
    for (size_t o = 0; o < p.home.size(); ++o) {
      if (p.home[o] != typing::kInvalidType) state.homes[o] = {p.home[o]};
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

util::Status FinishExtraction(
    const ExtractorOptions& options, graph::GraphView g,
    const PreClusterState& state,
    std::optional<cluster::ClusteringResult> clustering,
    ExtractionResult* result) {
  const typing::ExecOptions exec{.check_cancel = options.check_cancel};

  // Stage 2.
  util::WallTimer stage_timer;
  const bool stage2 = options.target_num_types > 0 &&
                      options.target_num_types < state.program.NumTypes();
  if (stage2 && !clustering.has_value()) {
    SCHEMEX_ASSIGN_OR_RETURN(
        clustering,
        cluster::ClusterTypes(state.program, state.weights,
                              {.psi = options.psi,
                               .target_num_types = options.target_num_types,
                               .enable_empty_type = options.enable_empty_type},
                              exec));
    result->timings.cluster_ms = stage_timer.ElapsedMillis();
  }

  // Stage 3, timed from mapping the homes through the clustering (linear
  // in objects) to the end of the defect measurement.
  stage_timer.Restart();
  if (stage2) {
    result->clustering = *std::move(clustering);
    result->clustering_applied = true;
    result->final_program = result->clustering.final_program;
    result->final_homes =
        MapHomesThrough(state.homes, result->clustering.final_map);
  } else {
    result->final_program = state.program;
    result->final_homes = state.homes;
  }
  result->num_final_types = result->final_program.NumTypes();
  SCHEMEX_RETURN_IF_ERROR(exec.Poll());
  SCHEMEX_ASSIGN_OR_RETURN(
      result->recast,
      typing::Recast(result->final_program, g, result->final_homes,
                     options.recast, exec));
  result->defect = typing::ComputeDefect(result->final_program, g,
                                         result->recast.assignment);
  result->timings.recast_ms = stage_timer.ElapsedMillis();
  return util::Status::OK();
}

}  // namespace internal

util::StatusOr<ExtractionResult> SchemaExtractor::Run(
    graph::GraphView g) const {
  util::WallTimer total_timer;

  // Stage 1.
  ExtractionResult result;
  util::WallTimer stage_timer;
  SCHEMEX_ASSIGN_OR_RETURN(typing::PerfectTypingResult perfect,
                           internal::RunStage1(options_, g));
  result.timings.stage1_ms = stage_timer.ElapsedMillis();

  const internal::PreClusterState state =
      internal::PrepareForClustering(options_, std::move(perfect), &result);
  SCHEMEX_RETURN_IF_ERROR(
      internal::FinishExtraction(options_, g, state, std::nullopt, &result));
  result.timings.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace schemex::extract
