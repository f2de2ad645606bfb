#ifndef SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_
#define SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_

#include <functional>
#include <vector>

#include "extract/extractor.h"

/// Pipeline stages shared by SchemaExtractor::Run, SensitivitySweep and
/// the incremental re-extractor (incremental_extract.cc). The
/// incremental path's bit-identity contract — its output must equal a
/// cold extraction of the same graph — holds by construction because
/// both paths execute THESE functions for Stages 2 and 3; only Stage 1
/// differs (incremental re-refinement vs. a cold run, themselves pinned
/// identical by typing/incremental_refine.h).
namespace schemex::extract::internal {

/// Stage 1 with the options' algorithm and cancellation.
util::StatusOr<typing::PerfectTypingResult> RunStage1(
    const ExtractorOptions& options, graph::GraphView g);

/// Stage-1 (or roles) home sets + weights for clustering.
struct PreClusterState {
  typing::TypingProgram program;
  std::vector<std::vector<typing::TypeId>> homes;  // per object, program ids
  std::vector<uint32_t> weights;  // per type: #objects with home
};

PreClusterState PrepareForClustering(const ExtractorOptions& options,
                                     const typing::PerfectTypingResult& perfect,
                                     typing::RoleDecomposition* roles,
                                     bool* roles_applied);

/// Applies a stage1->final type map to home sets, dropping empty-type
/// entries and deduplicating.
std::vector<std::vector<typing::TypeId>> MapHomesThrough(
    const std::vector<std::vector<typing::TypeId>>& homes,
    const std::vector<typing::TypeId>& map);

/// Polls an optional cancellation hook; stages run only between OK polls.
util::Status PollCancel(const std::function<util::Status()>& check_cancel);

/// A cached Stage-2 run offered to FinishExtraction: the clustering
/// output is adopted verbatim iff the fresh Stage-2 inputs match the
/// cached ones exactly (program and weights compared element-wise; the
/// hot case is an unchanged perfect typing after a type-preserving
/// delta). The CALLER is responsible for only offering a cache whose
/// ClusteringOptions-affecting fields (psi, target_num_types,
/// enable_empty_type) match `options` — FinishExtraction cannot see the
/// cached run's options.
struct Stage2Reuse {
  const typing::TypingProgram* program = nullptr;   // cached stage-2 input
  const std::vector<uint32_t>* weights = nullptr;   // cached input weights
  const cluster::ClusteringResult* clustering = nullptr;  // cached output
};

/// Stages 2 + 3 + defect over a finished Stage-1 result: role
/// decomposition, clustering (or the reuse short-circuit), recast and
/// defect measurement. Fills every ExtractionResult field except
/// timings.stage1_ms / timings.total_ms, which belong to the caller.
/// `stage2_reused` (optional) reports whether `reuse` was adopted.
util::StatusOr<ExtractionResult> FinishExtraction(
    const ExtractorOptions& options, graph::GraphView g,
    typing::PerfectTypingResult perfect, const Stage2Reuse* reuse = nullptr,
    bool* stage2_reused = nullptr);

}  // namespace schemex::extract::internal

#endif  // SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_
