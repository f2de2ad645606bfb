#ifndef SCHEMEX_EXTRACT_INCREMENTAL_EXTRACT_H_
#define SCHEMEX_EXTRACT_INCREMENTAL_EXTRACT_H_

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "extract/extractor.h"

namespace schemex::extract {

/// Everything a finished extraction leaves behind for the next
/// incremental one: the Stage-1 partition (the seed of incremental
/// re-refinement) and, when clustering ran without role decomposition,
/// the Stage-2 output, so a delta that leaves the perfect typing
/// unchanged skips Stage 2 entirely.
struct ExtractionCache {
  typing::PerfectTypingResult perfect;

  /// The Stage-2 output, kept only by runs without roles, so ClusterTypes'
  /// inputs were perfect.program and perfect.weight.
  std::optional<cluster::ClusteringResult> clustering;

  /// The options the cached run used, check_cancel cleared (the hook
  /// belongs to that run's request). ReExtract replays them, so the
  /// incremental run's configuration is the cached run's exactly (the
  /// bit-identity contract is against a cold extraction *with the same
  /// options*). target_num_types is the k the run used, possibly
  /// knee-selected by the service; re_extract without an explicit k
  /// reuses it.
  ExtractorOptions options;

  /// Equal to options.target_num_types. Only perfbench/driver/replay.cc,
  /// which is frozen, still reads it.
  size_t chosen_k = 0;
};

/// Captures the reusable state of a finished `Run(options)` extraction
/// (or ExtractAtKnee's, with options.target_num_types = the knee's k).
/// Role-decomposed runs cache only the Stage-1 result (their Stage-2
/// inputs are the role program, which the result does not carry in
/// reusable form), so their re-extractions re-cluster cold.
ExtractionCache MakeExtractionCache(const ExtractionResult& result,
                                    const ExtractorOptions& options);

/// Knobs for the incremental Stage 1 inside ReExtract (forwarded to
/// typing::IncrementalRefine).
struct IncrementalOptions {
  double max_dirty_fraction = 0.25;
  size_t max_rounds = 64;
};

/// What the incremental machinery actually did, for responses/benches.
struct ReExtractStats {
  /// Stage 1 ran incrementally (no fallback). False means the cold
  /// refinement ran — because the dirty set blew the threshold, the
  /// cache was produced by the GFP algorithm, or the inputs were
  /// inconsistent; reason says which.
  bool incremental_stage1 = false;
  std::string stage1_fallback_reason;
  size_t dirty_seed = 0;
  size_t dirty_peak = 0;
  size_t rounds = 0;
  /// Stage 2 adopted the cached clustering instead of re-running.
  bool stage2_reused = false;
};

/// Incremental re-extraction: the cached run's pipeline re-executed over
/// the mutated graph `g`, with Stage 1 seeded from the cached partition
/// (dirty set = `touched`, typically DataGraph::TouchedComplexObjects())
/// and the cached clustering adopted when its inputs are unchanged: same
/// k, and a perfect program and weights equal to the cache's. `k` = 0
/// reuses the cached k; `check_cancel` is the run's cancellation hook.
/// The result is bit-identical to SchemaExtractor::Run over `g` with the
/// cache's options (same k) — Stages 2/3 share the cold code path
/// outright, and incremental Stage 1 is pinned against the cold
/// refinement by construction and by determinism tests.
util::StatusOr<ExtractionResult> ReExtract(
    graph::GraphView g, const ExtractionCache& cache,
    std::span<const graph::ObjectId> touched, size_t k,
    const std::function<util::Status()>& check_cancel,
    const IncrementalOptions& inc = {}, ReExtractStats* stats = nullptr);

/// The signature ReExtract had when it took a Stage-1/3 thread count.
/// perfbench/driver/replay.cc, which is frozen, still calls it; the
/// count is ignored and every stage runs on the caller's thread.
inline util::StatusOr<ExtractionResult> ReExtract(
    graph::GraphView g, const ExtractionCache& cache,
    std::span<const graph::ObjectId> touched, size_t k,
    size_t /*ignored_threads*/,
    const std::function<util::Status()>& check_cancel,
    const IncrementalOptions& inc, ReExtractStats* stats) {
  return ReExtract(g, cache, touched, k, check_cancel, inc, stats);
}

}  // namespace schemex::extract

#endif  // SCHEMEX_EXTRACT_INCREMENTAL_EXTRACT_H_
