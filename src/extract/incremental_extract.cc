#include "extract/incremental_extract.h"

#include <utility>

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
    cache.clustering_cached = true;
    // Without roles, the Stage-2 inputs are exactly the perfect program
    // and its per-type weights (PrepareForClustering's identity path).
    cache.stage2_program = result.perfect.program;
    cache.stage2_weights = result.perfect.weight;
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
  if (options.stage1 == ExtractorOptions::Stage1Algorithm::kRefinement) {
    typing::IncrementalRefineOptions ro;
    ro.max_dirty_fraction = inc.max_dirty_fraction;
    ro.max_rounds = inc.max_rounds;
    ro.exec.check_cancel = check_cancel;
    typing::IncrementalRefineStats rstats;
    SCHEMEX_ASSIGN_OR_RETURN(
        perfect,
        typing::IncrementalRefine(g, cache.perfect, touched, ro, &rstats));
    st.incremental_stage1 = !rstats.fell_back;
    st.stage1_fallback_reason = rstats.fallback_reason;
    st.dirty_seed = rstats.seed_dirty;
    st.dirty_peak = rstats.peak_dirty;
    st.rounds = rstats.rounds;
  } else {
    SCHEMEX_ASSIGN_OR_RETURN(perfect, internal::RunStage1(options, g));
    st.stage1_fallback_reason =
        "cache produced by stage1=gfp; incremental Stage 1 requires "
        "refinement";
  }
  double stage1_ms = stage_timer.ElapsedMillis();
  SCHEMEX_RETURN_IF_ERROR(internal::PollCancel(check_cancel));

  // Stages 2+3 via the cold pipeline, offering the cached clustering for
  // reuse when it exists and was produced at the same k (the other
  // option fields match by construction above).
  internal::Stage2Reuse reuse;
  const internal::Stage2Reuse* reuse_ptr = nullptr;
  if (cache.clustering_cached &&
      options.target_num_types == cache.options.target_num_types) {
    reuse.program = &cache.stage2_program;
    reuse.weights = &cache.stage2_weights;
    reuse.clustering = &cache.clustering;
    reuse_ptr = &reuse;
  }
  SCHEMEX_ASSIGN_OR_RETURN(
      ExtractionResult result,
      internal::FinishExtraction(options, g, std::move(perfect), reuse_ptr,
                                 &st.stage2_reused));
  result.timings.stage1_ms = stage1_ms;
  result.timings.total_ms = total_timer.ElapsedMillis();
  return result;
}

}  // namespace schemex::extract
