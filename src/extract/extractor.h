#ifndef SCHEMEX_EXTRACT_EXTRACTOR_H_
#define SCHEMEX_EXTRACT_EXTRACTOR_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "cluster/greedy.h"
#include "graph/graph_view.h"
#include "typing/defect.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"
#include "typing/roles.h"
#include "util/statusor.h"

namespace schemex::extract {

/// End-to-end configuration of the three-stage method (§3).
struct ExtractorOptions {
  enum class Stage1Algorithm {
    kGfp,         ///< the paper's candidate-program + extent-merge (§4.1)
    kRefinement,  ///< scalable partition refinement (bisimulation-style)
  };
  Stage1Algorithm stage1 = Stage1Algorithm::kRefinement;

  /// Run the multiple-roles pass (§4.2) between Stages 1 and 2.
  bool decompose_roles = false;

  /// Weighted distance for Stage 2 (the paper's experiments use psi2, the
  /// weighted Manhattan distance).
  cluster::PsiKind psi = cluster::PsiKind::kPsi2;

  /// Number of types to cluster down to. 0 keeps the perfect typing
  /// (Stage 2 skipped).
  size_t target_num_types = 0;

  /// Allow Stage 2 to move types to the implicit empty type instead of
  /// merging them (Example 5.3).
  bool enable_empty_type = true;

  typing::RecastOptions recast;

  /// Cooperative cancellation hook, polled at every stage boundary
  /// (after Stage 1, after Stage 2, and between sweep snapshots) and
  /// *inside* Stage 1 (between refinement rounds, between GFP phases, and
  /// every few thousand GFP worklist pops), so long extracts abort
  /// mid-stage. Return a non-OK status — typically DeadlineExceeded — to
  /// abort the pipeline; the status is propagated verbatim. Null = never
  /// cancel.
  std::function<util::Status()> check_cancel;
};

/// Per-stage wall-clock of one extraction, for benchmarks and the
/// service's extract.stage1_ms-style histograms.
struct StageTimings {
  double stage1_ms = 0;  ///< perfect typing (refinement or GFP)
  double cluster_ms = 0; ///< Stage 2 clustering or its reuse (0 when skipped)
  double recast_ms = 0;  ///< home remap + Stage 3 + defect measurement
  double total_ms = 0;
};

/// Everything the pipeline produced, including intermediates for
/// inspection.
struct ExtractionResult {
  /// Stage 1: the minimal perfect typing.
  typing::PerfectTypingResult perfect;

  /// Multiple-roles pass output (program == perfect.program reduced);
  /// only meaningful when options.decompose_roles.
  typing::RoleDecomposition roles;
  bool roles_applied = false;

  /// Stage 2 output; only meaningful when clustering ran.
  cluster::ClusteringResult clustering;
  bool clustering_applied = false;

  /// The program the data was recast into (== perfect/roles program when
  /// Stage 2 was skipped).
  typing::TypingProgram final_program;

  /// Per-object home type sets in final_program ids (empty set = object
  /// moved to the empty type).
  std::vector<std::vector<typing::TypeId>> final_homes;

  /// Stage 3 output.
  typing::RecastResult recast;

  /// Defect of the final assignment (Table 1's "Defect" column).
  typing::DefectReport defect;

  size_t num_perfect_types = 0;
  size_t num_final_types = 0;

  /// Wall-clock spent in each stage of this run.
  StageTimings timings;
};

/// Orchestrates Stage 1 -> (roles) -> Stage 2 -> Stage 3 -> defect, every
/// stage on the caller's thread.
class SchemaExtractor {
 public:
  explicit SchemaExtractor(ExtractorOptions options) : options_(options) {}

  util::StatusOr<ExtractionResult> Run(graph::GraphView g) const;

  const ExtractorOptions& options() const { return options_; }

 private:
  ExtractorOptions options_;
};

/// One point of the paper's Figure 6: the typing quality at `k` types.
struct SensitivityPoint {
  size_t k;
  double total_distance;  ///< cumulative greedy clustering cost
  size_t excess;
  size_t deficit;
  size_t defect;

  friend bool operator==(const SensitivityPoint&,
                         const SensitivityPoint&) = default;
};

/// Re-runs Stages 2+3 at every k from min(n, `max_k`) down to `min_k`,
/// where n is the perfect-type count and `max_k` = 0 means n (single
/// clustering run with snapshots), and measures the defect at each k —
/// the sliding-scale mechanism of §6 and the curves of Figure 6.
/// `options.target_num_types` is ignored.
///
/// The cap is exact: the clustering always runs the full ladder down to
/// `min_k`, recording a snapshot does not change it, and each point's
/// recast and defect depend only on its own snapshot, so the capped
/// sweep equals the uncapped sweep's points with k <= `max_k`. A knee
/// search limited to k <= max_types therefore pays for max_types
/// recasts instead of n.
util::StatusOr<std::vector<SensitivityPoint>> SensitivitySweep(
    graph::GraphView g, const ExtractorOptions& options, size_t min_k = 1,
    size_t max_k = 0);

}  // namespace schemex::extract

#endif  // SCHEMEX_EXTRACT_EXTRACTOR_H_
