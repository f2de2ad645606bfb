#include "extract/incremental_extract.h"

#include <optional>
#include <utility>
#include <vector>

#include "extract/pipeline_internal.h"
#include "typing/incremental_refine.h"
#include "util/timer.h"

namespace schemex::extract {

ExtractionCache MakeExtractionCache(const ExtractionResult& result,
                                    const ExtractorOptions& options) {
  ExtractionCache cache;
  cache.perfect = result.perfect;
  cache.chosen_k = options.target_num_types;
  cache.options = options;
  cache.options.check_cancel = nullptr;
  if (result.clustering_applied && !options.decompose_roles) {
    cache.clustering = result.clustering;
  }
  return cache;
}

util::StatusOr<ExtractionResult> ReExtract(
    graph::GraphView g, const ExtractionCache& cache,
    std::span<const graph::ObjectId> touched, size_t k,
    const std::function<util::Status()>& check_cancel,
    const IncrementalOptions& inc, ReExtractStats* stats) {
  ReExtractStats local_stats;
  ReExtractStats& st = stats ? *stats : local_stats;
  st = ReExtractStats{};

  util::WallTimer total_timer;

  // Replay the cached run's configuration; only k and cancellation are
  // caller-controlled.
  ExtractorOptions options = cache.options;
  if (k != 0) options.target_num_types = k;
  options.check_cancel = check_cancel;

  // Stage 1: incremental re-refinement from the cached partition. Only
  // refinement-produced caches qualify — the GFP algorithm's partition
  // is defined by extent equality, which the re-refiner does not model.
  util::WallTimer stage_timer;
  typing::PerfectTypingResult perfect;
  std::vector<typing::TypeId> classes;
  if (options.stage1 == ExtractorOptions::Stage1Algorithm::kRefinement) {
    typing::IncrementalRefineOptions ro;
    ro.max_dirty_fraction = inc.max_dirty_fraction;
    ro.max_rounds = inc.max_rounds;
    ro.exec.check_cancel = check_cancel;
    typing::IncrementalRefineStats rstats;
    SCHEMEX_ASSIGN_OR_RETURN(
        perfect,
        typing::IncrementalRefine(g, cache.perfect, touched, ro, &rstats));
    SCHEMEX_RETURN_IF_ERROR(ro.exec.Poll());
    st.incremental_stage1 = !rstats.fell_back;
    st.stage1_fallback_reason = rstats.fallback_reason;
    st.dirty_seed = rstats.seed_dirty;
    st.dirty_peak = rstats.peak_dirty;
    st.rounds = rstats.rounds;
    classes = perfect.home;
  } else {
    SCHEMEX_ASSIGN_OR_RETURN(perfect,
                             internal::RunStage1(options, g, &classes));
    st.stage1_fallback_reason =
        "cache produced by stage1=gfp; incremental Stage 1 requires "
        "refinement";
  }
  ExtractionResult result;
  result.timings.stage1_ms = stage_timer.ElapsedMillis();
  const internal::PreClusterState state = internal::PrepareForClustering(
      options, std::move(perfect), std::move(classes), &result);

  // Stages 2+3 via the cold pipeline, adopting the cached clustering if
  // it was made at the same k (the other options match by construction)
  // from the same inputs: without roles, the perfect program and weights.
  stage_timer.Restart();
  std::optional<cluster::ClusteringResult> cached;
  st.stage2_reused =
      cache.clustering.has_value() &&
      options.target_num_types == cache.options.target_num_types &&
      result.perfect.weight == cache.perfect.weight &&
      result.perfect.program == cache.perfect.program;
  if (st.stage2_reused) {
    cached = cache.clustering;
    result.timings.cluster_ms = stage_timer.ElapsedMillis();
  }
  SCHEMEX_RETURN_IF_ERROR(internal::FinishExtraction(
      options, g, state, std::move(cached), /*quotient=*/nullptr, &result));
  result.timings.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace schemex::extract
