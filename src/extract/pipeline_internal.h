#ifndef SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_
#define SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_

#include <optional>
#include <vector>

#include "extract/extractor.h"

/// Pipeline stages shared by SchemaExtractor::Run, the sweeps in knee.cc
/// and the incremental re-extractor (incremental_extract.cc). The
/// incremental path's bit-identity contract — its output must equal a
/// cold extraction of the same graph — holds by construction because
/// both paths execute THESE functions for Stages 2 and 3; only Stage 1
/// differs (incremental re-refinement vs. a cold run, themselves pinned
/// identical by typing/incremental_refine.h).
namespace schemex::extract::internal {

/// Stage 1 with the options' algorithm and cancellation, polled inside
/// and once more after it.
util::StatusOr<typing::PerfectTypingResult> RunStage1(
    const ExtractorOptions& options, graph::GraphView g);

/// Stage-1 (or roles) home sets + weights for clustering.
struct PreClusterState {
  typing::TypingProgram program;
  std::vector<std::vector<typing::TypeId>> homes;  // per object, program ids
  std::vector<uint32_t> weights;  // per type: #objects with home
};

/// Records a finished Stage 1 in `result`, runs the roles pass over it
/// when options.decompose_roles, and returns the clustering inputs
/// (without roles: the perfect program, homes and weights).
PreClusterState PrepareForClustering(const ExtractorOptions& options,
                                     typing::PerfectTypingResult perfect,
                                     ExtractionResult* result);

/// Applies a stage1->final type map to home sets, dropping empty-type
/// entries and deduplicating.
std::vector<std::vector<typing::TypeId>> MapHomesThrough(
    const std::vector<std::vector<typing::TypeId>>& homes,
    const std::vector<typing::TypeId>& map);

/// Stages 2 + 3 + defect over `result`, which PrepareForClustering began
/// with `state`. Stage 2 (skipped at target 0 or >= the type count)
/// adopts `clustering` when set: a result already computed for exactly
/// `state` and `options` (the knee ladder's rung, or a cached clustering
/// of an unchanged perfect typing), whose cluster_ms is the caller's.
/// Fills every field but timings.stage1_ms, sweep_ms and total_ms.
util::Status FinishExtraction(
    const ExtractorOptions& options, graph::GraphView g,
    const PreClusterState& state,
    std::optional<cluster::ClusteringResult> clustering,
    ExtractionResult* result);

}  // namespace schemex::extract::internal

#endif  // SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_
