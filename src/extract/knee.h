#ifndef SCHEMEX_EXTRACT_KNEE_H_
#define SCHEMEX_EXTRACT_KNEE_H_

#include <cstddef>
#include <vector>

#include "extract/extractor.h"

namespace schemex::extract {

/// Knee selection over a sensitivity sweep — §7.2/§8's "optimal number
/// (or a small range) of types": "the algorithm can find the optimal
/// trade-off point and suggest a 'natural' typing (or a small set)".
struct KneeOptions {
  /// Only consider typings with at most this many types (the regime
  /// where a typing is usable as a schema), so a sweep capped at the same
  /// value yields the same knee; ExtractAtKnee sweeps only those. 0 = no
  /// cap, which is degenerate: k = n, the perfect typing, is in range at
  /// defect 0, so the knee is the smallest k with defect 0 (usually n).
  size_t max_types = 20;

  /// Accept any k whose defect is within this factor of the best defect
  /// in range, then prefer the smallest such k (smaller schema at nearly
  /// the same quality).
  double tolerance = 1.25;
};

struct Knee {
  size_t k = 0;
  size_t defect = 0;
  /// The best (minimum) defect seen within the considered range — the
  /// anchor the tolerance was applied to.
  size_t best_defect_in_range = 0;
};

/// Finds the knee. Returns k = 0 on an empty sweep. Points may be in any
/// order (SensitivitySweep emits them high-k to low-k).
Knee FindKnee(const std::vector<SensitivityPoint>& points,
              const KneeOptions& options = {});

/// The §8 "small set" variant: all k (ascending) within tolerance of the
/// best defect in range — the natural typings worth offering a user.
std::vector<size_t> NaturalTypeCounts(
    const std::vector<SensitivityPoint>& points,
    const KneeOptions& options = {});

/// An auto-k extraction: SensitivitySweep(g, options,
/// knee_options.max_types)'s points, their knee, and the extraction
/// SchemaExtractor::Run would return at target_num_types = knee.k.
struct KneeExtraction {
  std::vector<SensitivityPoint> points;
  /// How many of `points` ran the nearest-type fallback per object
  /// (ExtractionResult::per_object_fallback).
  size_t per_object_points = 0;
  Knee knee;
  ExtractionResult result;
};

/// Auto-k in one pass (§6's sliding scale read off one ladder): the
/// sweep, FindKnee, and the knee's extraction finished from the ladder's
/// own rung with one more recast, keeping no snapshots. Every point and
/// the knee run Stage 3 on one quotient, and only the knee's result is
/// materialized per object. Timings count each interval once: cluster_ms
/// is the ladder, sweep_ms the points and the knee.
/// `options.target_num_types` is ignored.
util::StatusOr<KneeExtraction> ExtractAtKnee(
    graph::GraphView g, const ExtractorOptions& options,
    const KneeOptions& knee_options = {});

}  // namespace schemex::extract

#endif  // SCHEMEX_EXTRACT_KNEE_H_
