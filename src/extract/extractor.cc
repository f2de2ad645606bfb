#include "extract/extractor.h"

#include <algorithm>
#include <utility>

#include "extract/pipeline_internal.h"
#include "util/timer.h"

namespace schemex::extract {

namespace internal {

using typing::TypeId;

util::StatusOr<typing::PerfectTypingResult> RunStage1(
    const ExtractorOptions& options, graph::GraphView g,
    std::vector<TypeId>* classes) {
  const typing::ExecOptions exec{.check_cancel = options.check_cancel};
  typing::PerfectTypingResult perfect;
  if (options.stage1 == ExtractorOptions::Stage1Algorithm::kGfp) {
    SCHEMEX_ASSIGN_OR_RETURN(perfect,
                             typing::PerfectTypingViaGfp(g, exec, classes));
  } else {
    SCHEMEX_ASSIGN_OR_RETURN(perfect,
                             typing::PerfectTypingViaHashRefinement(g, exec));
    *classes = perfect.home;
  }
  SCHEMEX_RETURN_IF_ERROR(exec.Poll());
  return perfect;
}

PreClusterState PrepareForClustering(const ExtractorOptions& options,
                                     typing::PerfectTypingResult perfect,
                                     std::vector<TypeId> classes,
                                     ExtractionResult* result) {
  result->perfect = std::move(perfect);
  result->num_perfect_types = result->perfect.program.NumTypes();
  const typing::PerfectTypingResult& p = result->perfect;
  PreClusterState state;
  state.classes = std::move(classes);

  // Each class's perfect type (its members' home) and size.
  std::vector<TypeId> class_home;
  std::vector<uint32_t> size;
  for (size_t o = 0; o < p.home.size(); ++o) {
    if (p.home[o] == typing::kInvalidType) continue;
    const auto c = static_cast<size_t>(state.classes[o]);
    if (c >= size.size()) {
      size.resize(c + 1, 0);
      class_home.resize(c + 1, typing::kInvalidType);
    }
    if (size[c]++ == 0) class_home[c] = p.home[o];
  }
  result->quotient_classes = size.size();
  if (options.decompose_roles) {
    result->roles = typing::DecomposeRoles(p.program);
    result->roles_applied = true;
    state.program = result->roles.program;
    state.homes = result->roles.MapHomes(class_home);
  } else {
    state.program = p.program;
    state.homes.resize(class_home.size());
    for (size_t c = 0; c < class_home.size(); ++c) {
      state.homes[c] = {class_home[c]};
    }
  }
  state.weights.assign(state.program.NumTypes(), 0);
  for (size_t c = 0; c < state.homes.size(); ++c) {
    for (TypeId t : state.homes[c]) {
      state.weights[static_cast<size_t>(t)] += size[c];
    }
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
    const typing::Quotient* quotient, ExtractionResult* result) {
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

  // Stage 3, timed from mapping the class homes through the clustering
  // to the end of the per-object materialization.
  stage_timer.Restart();
  std::vector<std::vector<TypeId>> class_homes;
  if (stage2) {
    result->clustering = *std::move(clustering);
    result->clustering_applied = true;
    result->final_program = result->clustering.final_program;
    class_homes = MapHomesThrough(state.homes, result->clustering.final_map);
  } else {
    result->final_program = state.program;
    class_homes = state.homes;
  }
  result->num_final_types = result->final_program.NumTypes();
  result->final_homes.assign(state.classes.size(), {});
  for (size_t o = 0; o < state.classes.size(); ++o) {
    if (!g.IsComplex(static_cast<graph::ObjectId>(o))) continue;
    result->final_homes[o] = class_homes[static_cast<size_t>(state.classes[o])];
  }
  SCHEMEX_RETURN_IF_ERROR(exec.Poll());
  std::optional<typing::Quotient> built;
  if (quotient == nullptr &&
      QuotientPays(state.homes.size(), g.NumComplexObjects())) {
    SCHEMEX_ASSIGN_OR_RETURN(built, typing::BuildQuotient(g, state.classes));
    quotient = &*built;
  }
  if (quotient == nullptr) {
    result->per_object_fallback = true;
    SCHEMEX_ASSIGN_OR_RETURN(
        result->recast,
        typing::Recast(result->final_program, g, result->final_homes,
                       options.recast, exec));
    result->defect = typing::ComputeDefect(result->final_program, g,
                                           result->recast.assignment);
  } else {
    SCHEMEX_ASSIGN_OR_RETURN(
        typing::QuotientRecast recast,
        typing::RecastQuotient(result->final_program, g, *quotient,
                               class_homes, options.recast, exec));
    result->quotient_triples = quotient->NumTriples();
    result->defect = recast.defect;
    result->per_object_fallback = recast.per_object_fallback;
    result->recast = typing::MaterializeRecast(*quotient, std::move(recast));
  }
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
  std::vector<typing::TypeId> classes;
  SCHEMEX_ASSIGN_OR_RETURN(typing::PerfectTypingResult perfect,
                           internal::RunStage1(options_, g, &classes));
  result.timings.stage1_ms = stage_timer.ElapsedMillis();

  const internal::PreClusterState state = internal::PrepareForClustering(
      options_, std::move(perfect), std::move(classes), &result);
  SCHEMEX_RETURN_IF_ERROR(internal::FinishExtraction(
      options_, g, state, std::nullopt, /*quotient=*/nullptr, &result));
  result.timings.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace schemex::extract
