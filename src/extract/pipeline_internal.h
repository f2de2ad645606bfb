#ifndef SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_
#define SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_

#include <optional>
#include <vector>

#include "extract/extractor.h"
#include "typing/quotient.h"

/// Pipeline stages shared by SchemaExtractor::Run, the sweeps in knee.cc
/// and the incremental re-extractor (incremental_extract.cc). The
/// incremental path's bit-identity contract — its output must equal a
/// cold extraction of the same graph — holds by construction because
/// both paths execute THESE functions for Stages 2 and 3; only Stage 1
/// differs (incremental re-refinement vs. a cold run, themselves pinned
/// identical by typing/incremental_refine.h).
namespace schemex::extract::internal {

/// Stage 1 with the options' algorithm and cancellation, polled inside
/// and once more after it. `*classes` receives the hash refinement's
/// partition, which Stage 3's quotient is built from: the perfect
/// typing's homes, or under stage1 = kGfp the finer classes its merged
/// types are unions of.
util::StatusOr<typing::PerfectTypingResult> RunStage1(
    const ExtractorOptions& options, graph::GraphView g,
    std::vector<typing::TypeId>* classes);

/// The clustering inputs, per Stage-1 refinement class.
struct PreClusterState {
  typing::TypingProgram program;
  /// Per object: its refinement class (kInvalidType for atomic objects),
  /// the partition Stage 3's quotient is built from.
  std::vector<typing::TypeId> classes;
  std::vector<std::vector<typing::TypeId>> homes;  // per class, program ids
  std::vector<uint32_t> weights;  // per type: #objects with home
};

/// Records a finished Stage 1 in `result`, runs the roles pass over it
/// when options.decompose_roles, and returns the clustering inputs over
/// `classes` (RunStage1's; without roles: the perfect program, one home
/// per class, and the perfect weights).
PreClusterState PrepareForClustering(const ExtractorOptions& options,
                                     typing::PerfectTypingResult perfect,
                                     std::vector<typing::TypeId> classes,
                                     ExtractionResult* result);

/// Applies a stage1->final type map to home sets (one per class),
/// dropping empty-type entries and deduplicating.
std::vector<std::vector<typing::TypeId>> MapHomesThrough(
    const std::vector<std::vector<typing::TypeId>>& homes,
    const std::vector<typing::TypeId>& map);

/// Stages 2 + 3 + defect over `result`, which PrepareForClustering began
/// with `state`. Stage 2 (skipped at target 0 or >= the type count)
/// adopts `clustering` when set: a result already computed for exactly
/// `state` and `options` (the knee ladder's rung, or a cached clustering
/// of an unchanged perfect typing), whose cluster_ms is the caller's.
/// Stage 3 runs on `quotient` (the sweep's, built from state.classes)
/// or, when null, on a quotient built here if QuotientPays, and only its
/// result is materialized per object; otherwise it runs per object
/// (typing::Recast + ComputeDefect). Fills every field but
/// timings.stage1_ms, sweep_ms and total_ms.
util::Status FinishExtraction(
    const ExtractorOptions& options, graph::GraphView g,
    const PreClusterState& state,
    std::optional<cluster::ClusteringResult> clustering,
    const typing::Quotient* quotient, ExtractionResult* result);

/// Whether one program's Stage 3 is cheaper on the quotient, counting its
/// build, than per object. Measured (RelWithDebInfo, one thread, 4-vCPU
/// VM, one Stage 3 at k <= 10): the quotient path is 2.5-4x faster where
/// the classes are at most 8 % of the complex objects (Table-1 DB1-DB4,
/// DB1 x10/x100), and 1.25-1.75x slower where they are at least 84 %
/// (DB5-DB8, DBG x1-x10, random graphs); the crossover lies near half.
/// A sweep runs many programs on one quotient and always builds it.
inline bool QuotientPays(size_t classes, size_t complex_objects) {
  return 2 * classes <= complex_objects;
}

}  // namespace schemex::extract::internal

#endif  // SCHEMEX_EXTRACT_PIPELINE_INTERNAL_H_
