// Scalability of the pipeline (§3: "be able to approximately type a
// LARGE collection of semistructured data efficiently"): wall-clock of
// each stage as the DBG-style database grows from ~0.5k to ~200k
// objects. Stage 1 uses partition refinement (the scalable algorithm);
// clustering cost depends on the Stage-1 type count, not the object
// count, which is the method's point.
//
// Flags:
//   --json    emit one machine-consumable JSON row per measurement
//             instead of tables. Row schemas (trajectory diffs parse
//             these; keep them stable):
//               pipeline row (scales 1, 5, 10, 25, 100) —
//                 {"bench":"scale","algo":"hash","objects":N,
//                  "edges":N,"stage1_types":N,"threads":1,"stage1_ms":F,
//                  "cluster_ms":F,"recast_ms":F,"apply_delta_ms":F,
//                  "speedup":1.000}
//                 The stage times are one SchemaExtractor::Run's
//                 StageTimings at k = 6 (recast_ms is Stage 3, run per
//                 object on DBG, whose classes do not halve the
//                 objects). apply_delta_ms is
//                 the wall-clock of applying a 64-op mutation batch to a
//                 DataGraph over the frozen graph (best of 3) — the
//                 generation-swap cost a service apply_delta pays before
//                 any retyping.
//               stage1-only row (scale 500) —
//                 {"bench":"scale","algo":"hash","objects":N,
//                  "edges":N,"threads":1,"stage1_ms":F,"speedup":1.000}
//               stage2_greedy row (scales 1, 5, 10, 25) —
//                 {"bench":"stage2_greedy","variant":V,"types":N,
//                  "runs":R,"cluster_ms_median":F,"cluster_ms_q1":F,
//                  "cluster_ms_q3":F,"cluster_ms_min":F,
//                  "cluster_ms_max":F,"hardware_concurrency":N,
//                  "rows":N,"rescans":N,"rescans_own_body":N,
//                  "rescans_dest_died":N,"rescans_dest_changed":N,
//                  "rescans_is_dest":N,"rescans_dest_weight":N,
//                  "postings_walked":N,"candidates_priced":N}
//                 R cold ClusterTypes runs (psi2, k = 6) over the
//                 scale's Stage-1 program; quartiles interpolate
//                 linearly between the sorted runs. The counters are
//                 one run's ClusteringCounters (every run repeats them);
//                 rows = types (the initial pass) + rescans.
//               cluster_kernel row (scales 1, 5, 10, 25) —
//                 {"bench":"cluster_kernel","kernel":"sorted"|"bit",
//                  "types":N,"pairs":N,"reps":N,"ms":F,"speedup":F}
//               knee_sweep row (scales 1, 5, 10, 25) —
//                 {"bench":"knee_sweep","scale":S,"types":N,"max_k":20,
//                  "points":P,"knee_k":K,"runs":R,"sweep_ms_median":F,
//                  "sweep_ms_q1":F,"sweep_ms_q3":F,"sweep_ms_min":F,
//                  "sweep_ms_max":F,"hardware_concurrency":N}
//                 R cold SensitivitySweep runs (Stage 1, Stage 2 down
//                 to k = 1, a recast + defect per k <= 20, the service's
//                 default max_types) with default options; K is
//                 FindKnee's pick under max_types = 20. Before the row
//                 prints, three gates must hold, or the run exits 1:
//                 the capped points equal the full sweep's points with
//                 k <= 20 (one untimed full sweep at scales <= 5; above,
//                 where it takes minutes, each capped point equals a
//                 cold extraction at its k); each capped point equals
//                 the per-object Stage 3 (typing::Recast +
//                 ComputeDefect) of its snapshot; and ExtractAtKnee's
//                 points equal the capped sweep's while its result
//                 equals SchemaExtractor::Run at the knee (final
//                 program, assignment, defect).
//               stage1_gfp row (DBG x1/x5/x25 and Table-1 DB1 x10/x30
//               with both variants; DB1 x100 "after" only) —
//                 {"bench":"stage1_gfp","variant":"before"|"after",
//                  "dataset":"dbg"|"db1","scale":S,"objects":N,
//                  "types":T,"bisim_types":B,"runs":R,
//                  "stage1_ms_median":F,"stage1_ms_q1":F,
//                  "stage1_ms_q3":F,"hardware_concurrency":N}
//                 R cold runs of `stage1: gfp`. "before" is the literal
//                 §4.1 program (tests/gfp_oracle.h: one candidate type
//                 and one n-bit extent per complex object); "after" is
//                 typing::PerfectTypingViaGfp (one per bisimulation
//                 class; B is their count, T the merged type count).
//                 Before the rows print, both results must be identical
//                 (program, homes, weights); a mismatch exits 1. The
//                 oracle would need ~1.26 GB of extents at DB1 x100.
//               stage3 row (Table-1 DB1 x10 and x100; x1 only with
//               --smoke) —
//                 {"bench":"stage3","variant":"before"|"after",
//                  "dataset":"db1","scale":S,"mode":"auto"|"fixed",
//                  "k":K,"objects":N,"edges":E,"classes":C,"triples":T,
//                  "points":P,"per_object_points":Q,"runs":R,
//                  "total_ms_median":F,"total_ms_q1":F,"total_ms_q3":F,
//                  "stage1_ms_median":F,"cluster_ms_median":F,
//                  "stage3_ms_median":F,"hardware_concurrency":N}
//                 R runs of each variant, alternating before/after, of
//                 auto-k at max_types 20 ("auto": P points, K the knee)
//                 or an extraction at k = 10 ("fixed", P = 0). "after"
//                 is the product (extract::ExtractAtKnee or
//                 SchemaExtractor::Run), its split read from its
//                 StageTimings: stage3_ms is sweep_ms (auto) or
//                 recast_ms (fixed), both including the build of the
//                 quotient of C classes and T triples. "before" is the
//                 per-object Stage 3 the quotient replaced: the same
//                 Stage 1 and ladder, then typing::Recast +
//                 ComputeDefect at every point and at K, timed by the
//                 bench; every one of its points is per object. Before
//                 the rows print, both variants' points, K and committed
//                 excess and deficit must agree; a mismatch exits 1.
//   --smoke   scales {1, 5} only and skip the large scales (CI-sized);
//             stage1_gfp rows for DBG x1 and DB1 x1 only, stage3 rows
//             for DB1 x1 only
//   --variant V
//             the stage2_greedy rows' "variant" label (default
//             "current"). Before/after rows come from this file built
//             once per library version, run alternately.
//
// Before any row prints, --json checks ClusterTypes against the naive
// reference (tests/greedy_oracle.h) on DBG x1 for every psi, with and
// without the empty type, down to k = 1 with every snapshot; a mismatch
// exits 1.
//
// Besides the per-stage pipeline rows, --json emits a "cluster_kernel"
// pair per scale comparing the two distance implementations over the
// Stage-1 all-pairs scan: the sorted-vector reference
// (TypeSignature::SymmetricDifferenceSize) vs the packed XOR+popcount
// kernel (BitSignatureIndex). Both sums are checked equal before the rows
// print; a mismatch exits 1.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/greedy.h"
#include "extract/extractor.h"
#include "extract/knee.h"
#include "gen/dbg.h"
#include "gen/spec.h"
#include "gen/table1.h"
#include "graph/data_graph.h"
#include "graph/frozen_graph.h"
#include "tests/gfp_oracle.h"
#include "tests/greedy_oracle.h"
#include "typing/bit_signature.h"
#include "typing/defect.h"
#include "typing/perfect_typing.h"
#include "typing/recast.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace schemex;  // NOLINT

void PrintJsonRow(size_t objects, size_t edges, double stage1_ms) {
  std::printf(
      "{\"bench\":\"scale\",\"algo\":\"hash\",\"objects\":%zu,"
      "\"edges\":%zu,\"threads\":1,\"stage1_ms\":%.3f,\"speedup\":1.000}\n",
      objects, edges, stage1_ms);
}

void PrintJsonPipelineRow(size_t objects, size_t edges, size_t stage1_types,
                          double stage1_ms, double cluster_ms,
                          double recast_ms, double apply_delta_ms) {
  std::printf(
      "{\"bench\":\"scale\",\"algo\":\"hash\",\"objects\":%zu,"
      "\"edges\":%zu,\"stage1_types\":%zu,\"threads\":1,\"stage1_ms\":%.3f,"
      "\"cluster_ms\":%.3f,\"recast_ms\":%.3f,\"apply_delta_ms\":%.3f,"
      "\"speedup\":1.000}\n",
      objects, edges, stage1_types, stage1_ms, cluster_ms, recast_ms,
      apply_delta_ms);
}

/// The value at quantile q of ascending `v`, interpolating linearly.
double Quantile(const std::vector<double>& v, double q) {
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Per-object home sets of a refinement Stage 1 mapped through `map`
/// (Stage-1 type -> final type, kEmptyType dropped).
std::vector<std::vector<typing::TypeId>> ObjectHomes(
    const typing::PerfectTypingResult& stage1,
    const std::vector<typing::TypeId>& map) {
  std::vector<std::vector<typing::TypeId>> homes(stage1.home.size());
  for (size_t o = 0; o < stage1.home.size(); ++o) {
    if (stage1.home[o] == typing::kInvalidType) continue;
    typing::TypeId m = map[static_cast<size_t>(stage1.home[o])];
    if (m != cluster::kEmptyType) homes[o] = {m};
  }
  return homes;
}

/// The per-object Stage 3 the quotient replaced: typing::Recast +
/// ComputeDefect of `program` over per-object `homes`.
util::StatusOr<typing::DefectReport> PerObjectStage3(
    const typing::TypingProgram& program, graph::GraphView g,
    const std::vector<std::vector<typing::TypeId>>& homes) {
  SCHEMEX_ASSIGN_OR_RETURN(typing::RecastResult recast,
                           typing::Recast(program, g, homes));
  return typing::ComputeDefect(program, g, recast.assignment);
}

/// Times `runs` cold Stage-2 runs (psi2, k = 6) over `stage1` and prints
/// their spread as a stage2_greedy row.
bool BenchStage2(const typing::PerfectTypingResult& stage1, int runs,
                 const std::string& variant) {
  cluster::ClusteringOptions copt;
  copt.target_num_types = 6;
  std::vector<double> ms;
  cluster::ClusteringCounters c;
  for (int r = 0; r < runs; ++r) {
    util::WallTimer t;
    auto clustering =
        cluster::ClusterTypes(stage1.program, stage1.weight, copt);
    ms.push_back(t.ElapsedMillis());
    if (!clustering.ok()) return false;
    c = clustering->counters;
  }
  std::sort(ms.begin(), ms.end());
  std::printf(
      "{\"bench\":\"stage2_greedy\",\"variant\":\"%s\",\"types\":%zu,"
      "\"runs\":%d,\"cluster_ms_median\":%.3f,\"cluster_ms_q1\":%.3f,"
      "\"cluster_ms_q3\":%.3f,\"cluster_ms_min\":%.3f,"
      "\"cluster_ms_max\":%.3f,\"hardware_concurrency\":%u,"
      "\"rows\":%llu,\"rescans\":%llu,\"rescans_own_body\":%llu,"
      "\"rescans_dest_died\":%llu,\"rescans_dest_changed\":%llu,"
      "\"rescans_is_dest\":%llu,\"rescans_dest_weight\":%llu,"
      "\"postings_walked\":%llu,\"candidates_priced\":%llu}\n",
      variant.c_str(), stage1.program.NumTypes(), runs, Quantile(ms, 0.5),
      Quantile(ms, 0.25), Quantile(ms, 0.75), ms.front(), ms.back(),
      std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(c.rows_computed),
      static_cast<unsigned long long>(c.Rescans()),
      static_cast<unsigned long long>(c.rescans_own_body_changed),
      static_cast<unsigned long long>(c.rescans_dest_died),
      static_cast<unsigned long long>(c.rescans_dest_changed),
      static_cast<unsigned long long>(c.rescans_is_dest),
      static_cast<unsigned long long>(c.rescans_dest_weight_priced),
      static_cast<unsigned long long>(c.postings_walked),
      static_cast<unsigned long long>(c.candidates_priced));
  return true;
}

/// True if ClusterTypes matches the naive reference on DBG x1 for every
/// psi, with and without the empty type, at every k down to 1.
bool GreedyMatchesReference() {
  auto g = gen::MakeDbgDataset();
  if (!g.ok()) return false;
  auto stage1 = typing::PerfectTypingViaHashRefinement(*g);
  if (!stage1.ok()) return false;
  for (cluster::PsiKind psi :
       {cluster::PsiKind::kSimpleD, cluster::PsiKind::kPsi1,
        cluster::PsiKind::kPsi2, cluster::PsiKind::kPsi3,
        cluster::PsiKind::kPsi4, cluster::PsiKind::kPsi5}) {
    for (bool empty : {true, false}) {
      cluster::ClusteringOptions copt;
      copt.psi = psi;
      copt.enable_empty_type = empty;
      copt.target_num_types = 1;
      copt.record_snapshots = true;
      auto fast = cluster::ClusterTypes(stage1->program, stage1->weight, copt);
      if (!fast.ok() ||
          !cluster::SameAsReference(
              *fast, cluster::ReferenceGreedy(stage1->program,
                                              stage1->weight, copt))) {
        std::fprintf(stderr,
                     "FAIL: ClusterTypes diverges from the naive reference "
                     "on DBG x1 (%s, empty type %s)\n",
                     std::string(cluster::PsiKindName(psi)).c_str(),
                     empty ? "on" : "off");
        return false;
      }
    }
  }
  return true;
}

using Points = std::vector<extract::SensitivityPoint>;

/// Timed cold knee sweeps: ascending wall times and the last run's points.
struct SweepRuns {
  std::vector<double> ms;
  Points points;
};

/// Runs `runs` cold SensitivitySweeps capped at `max_k`.
bool TimeKneeSweep(graph::GraphView g, size_t max_k, int runs,
                   SweepRuns* out) {
  for (int r = 0; r < runs; ++r) {
    util::WallTimer t;
    auto sweep = extract::SensitivitySweep(g, {}, max_k);
    out->ms.push_back(t.ElapsedMillis());
    if (!sweep.ok()) return false;
    out->points = *std::move(sweep);
  }
  std::sort(out->ms.begin(), out->ms.end());
  return true;
}

/// True if every point equals a cold extraction at its k: the check for
/// a capped sweep where the full one is too slow to compare against.
bool MatchesColdExtractions(graph::GraphView g, const Points& points) {
  for (const extract::SensitivityPoint& p : points) {
    extract::ExtractorOptions opt;
    opt.target_num_types = p.k;
    auto r = extract::SchemaExtractor(opt).Run(g);
    if (!r.ok()) return false;
    extract::SensitivityPoint cold{
        p.k, r->clustering_applied ? r->clustering.total_distance : 0.0,
        r->defect.excess, r->defect.deficit, r->defect.defect()};
    if (!(cold == p)) return false;
  }
  return true;
}

/// True if every point equals the per-object Stage 3 of its snapshot on
/// the default ladder capped at `max_k`.
bool MatchesPerObjectStage3(graph::GraphView g, const Points& points,
                            size_t max_k) {
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  if (!stage1.ok()) return false;
  cluster::ClusteringOptions copt;
  copt.target_num_types = 1;
  copt.record_snapshots = true;
  copt.max_snapshot_types = max_k;
  auto ladder = cluster::ClusterTypes(stage1->program, stage1->weight, copt);
  if (!ladder.ok() || ladder->snapshots.size() != points.size()) return false;
  for (size_t i = 0; i < points.size(); ++i) {
    const cluster::Snapshot& snap = ladder->snapshots[i];
    auto defect = PerObjectStage3(snap.program, g,
                                  ObjectHomes(*stage1, snap.stage1_to_snapshot));
    if (!defect.ok()) return false;
    extract::SensitivityPoint want{snap.num_types, snap.total_distance,
                                   defect->excess, defect->deficit,
                                   defect->defect()};
    if (!(want == points[i])) return false;
  }
  return true;
}

/// True if the one-pass auto-k extraction (ExtractAtKnee) reads
/// `points`, the sweep capped at `max_k`, and its result equals
/// SchemaExtractor::Run at the knee: final program, assignment, defect.
bool KneeExtractionMatches(graph::GraphView g, const Points& points,
                           size_t max_k) {
  extract::KneeOptions knee;
  knee.max_types = max_k;
  auto one_pass = extract::ExtractAtKnee(g, {}, knee);
  if (!one_pass.ok() || one_pass->points != points) return false;
  extract::ExtractorOptions opt;
  opt.target_num_types = extract::FindKnee(points, knee).k;
  auto run = extract::SchemaExtractor(opt).Run(g);
  if (!run.ok()) return false;
  const extract::ExtractionResult& r = one_pass->result;
  return one_pass->knee.k == opt.target_num_types &&
         r.final_program == run->final_program &&
         r.recast.assignment == run->recast.assignment &&
         r.defect.excess == run->defect.excess &&
         r.defect.deficit == run->defect.deficit;
}

void PrintKneeRow(int scale, size_t types, size_t max_k,
                  const SweepRuns& runs) {
  extract::KneeOptions knee;
  knee.max_types = max_k;
  const std::vector<double>& ms = runs.ms;
  std::printf(
      "{\"bench\":\"knee_sweep\",\"scale\":%d,\"types\":%zu,\"max_k\":%zu,"
      "\"points\":%zu,\"knee_k\":%zu,\"runs\":%zu,\"sweep_ms_median\":%.3f,"
      "\"sweep_ms_q1\":%.3f,\"sweep_ms_q3\":%.3f,\"sweep_ms_min\":%.3f,"
      "\"sweep_ms_max\":%.3f,\"hardware_concurrency\":%u}\n",
      scale, types, max_k, runs.points.size(),
      extract::FindKnee(runs.points, knee).k, ms.size(), Quantile(ms, 0.5),
      Quantile(ms, 0.25), Quantile(ms, 0.75), ms.front(), ms.back(),
      std::thread::hardware_concurrency());
}

// The service's default knee range (ExtractParams::max_types), and the
// largest scale whose full sweep (one recast per Stage-1 type) is the
// reference for the capped points.
constexpr size_t kKneeMaxTypes = 20;
constexpr int kFullSweepMaxScale = 5;

/// Prints the knee_sweep row for one scale once the capped points and
/// the one-pass auto-k extraction have been checked exact; returns false
/// on a failed run or a mismatch.
bool BenchKneeSweeps(graph::GraphView g, int scale, size_t types,
                     int runs) {
  SweepRuns capped;
  if (!TimeKneeSweep(g, kKneeMaxTypes, runs, &capped)) return false;
  bool exact = false;
  if (scale <= kFullSweepMaxScale) {
    auto full = extract::SensitivitySweep(g, {});
    if (!full.ok()) return false;
    Points tail;
    for (const extract::SensitivityPoint& p : *full) {
      if (p.k <= kKneeMaxTypes) tail.push_back(p);
    }
    exact = capped.points == tail;
  } else {
    exact = MatchesColdExtractions(g, capped.points);
  }
  if (!exact) {
    std::fprintf(stderr,
                 "FAIL: scale %d: the sweep capped at k <= %zu diverges from "
                 "the full sweep\n",
                 scale, kKneeMaxTypes);
    return false;
  }
  if (!MatchesPerObjectStage3(g, capped.points, kKneeMaxTypes)) {
    std::fprintf(stderr,
                 "FAIL: scale %d: a capped sweep point differs from the "
                 "per-object Stage 3 (Recast + ComputeDefect)\n",
                 scale);
    return false;
  }
  if (!KneeExtractionMatches(g, capped.points, kKneeMaxTypes)) {
    std::fprintf(stderr,
                 "FAIL: scale %d: ExtractAtKnee diverges from the capped "
                 "sweep or from SchemaExtractor::Run at the knee\n",
                 scale);
    return false;
  }
  PrintKneeRow(scale, types, kKneeMaxTypes, capped);
  return true;
}

/// Wall-clock of a 64-op mutation batch (adds, links, deletes) against a
/// fresh DataGraph over `frozen`, best of 3 — the pure overlay cost of
/// a service apply_delta, before online typing or re-extraction.
double BenchApplyDelta(const std::shared_ptr<const graph::FrozenGraph>& frozen) {
  std::vector<graph::ObjectId> complexes;
  for (graph::ObjectId o = 0; o < frozen->NumObjects(); ++o) {
    if (frozen->IsComplex(o)) complexes.push_back(o);
  }
  if (complexes.empty()) return 0.0;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    graph::DataGraph ov(frozen);
    util::WallTimer t;
    for (size_t i = 0; i < 64; ++i) {
      switch (i % 4) {
        case 0: {
          graph::ObjectId c = ov.AddComplex();
          (void)ov.AddEdge(complexes[i % complexes.size()], c, "ref");
          break;
        }
        case 1:
          (void)ov.AddAtomic("v");
          break;
        case 2:
          (void)ov.AddEdge(complexes[i % complexes.size()],
                           complexes[(i * 7 + 1) % complexes.size()],
                           "extra");
          break;
        default: {
          graph::ObjectId from = complexes[i % complexes.size()];
          auto out = ov.OutEdges(from);
          if (!out.empty()) {
            (void)ov.RemoveEdge(from, out[0].other, out[0].label);
          }
          break;
        }
      }
    }
    best = std::min(best, t.ElapsedMillis());
  }
  return best;
}

/// Times the all-pairs distance scan over the Stage-1 types (how k-center
/// and the exact search fill their distance tables) on both kernels
/// (best of 3, repeated until each timed run covers a few million pair
/// distances so small scales still produce stable numbers). Returns false
/// if the two kernels disagree on the summed distance.
bool BenchDistanceKernels(const typing::TypingProgram& p, bool json,
                          std::vector<std::string>* table_lines) {
  const size_t n = p.NumTypes();
  if (n < 2) return true;
  const size_t pairs = n * (n - 1) / 2;
  const int reps = static_cast<int>(std::max<size_t>(1, 4'000'000 / pairs));

  uint64_t sorted_sum = 0;
  double sorted_ms = 1e300;
  for (int best = 0; best < 3; ++best) {
    util::WallTimer t;
    uint64_t sum = 0;
    for (int r = 0; r < reps; ++r) {
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          sum += typing::TypeSignature::SymmetricDifferenceSize(
              p.type(static_cast<typing::TypeId>(i)).signature,
              p.type(static_cast<typing::TypeId>(j)).signature);
        }
      }
    }
    sorted_ms = std::min(sorted_ms, t.ElapsedMillis());
    sorted_sum = sum;
  }

  uint64_t bit_sum = 0;
  double bit_ms = 1e300;
  for (int best = 0; best < 3; ++best) {
    util::WallTimer t;
    // Encoding is part of the kernel's cost: bill it like k-center does
    // (once per scan, then XOR+popcount per pair).
    typing::BitSignatureIndex index(p);
    std::vector<typing::BitSignature> enc(n);
    for (size_t i = 0; i < n; ++i) {
      enc[i] = index.EncodeFrozen(
          p.type(static_cast<typing::TypeId>(i)).signature);
    }
    uint64_t sum = 0;
    for (int r = 0; r < reps; ++r) {
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          sum += typing::BitSignatureIndex::Distance(enc[i], enc[j]);
        }
      }
    }
    bit_ms = std::min(bit_ms, t.ElapsedMillis());
    bit_sum = sum;
  }

  if (sorted_sum != bit_sum) {
    std::fprintf(stderr,
                 "FAIL: kernel distance sums diverge (sorted %llu, bit %llu)\n",
                 static_cast<unsigned long long>(sorted_sum),
                 static_cast<unsigned long long>(bit_sum));
    return false;
  }
  if (json) {
    std::printf(
        "{\"bench\":\"cluster_kernel\",\"kernel\":\"sorted\",\"types\":%zu,"
        "\"pairs\":%zu,\"reps\":%d,\"ms\":%.3f,\"speedup\":1.000}\n",
        n, pairs, reps, sorted_ms);
    std::printf(
        "{\"bench\":\"cluster_kernel\",\"kernel\":\"bit\",\"types\":%zu,"
        "\"pairs\":%zu,\"reps\":%d,\"ms\":%.3f,\"speedup\":%.3f}\n",
        n, pairs, reps, bit_ms, bit_ms > 0 ? sorted_ms / bit_ms : 0.0);
  } else {
    table_lines->push_back(util::StringPrintf(
        "%zu types (%zu pairs x %d reps): sorted %.1f ms, bit %.1f ms "
        "(%.1fx)",
        n, pairs, reps, sorted_ms, bit_ms,
        bit_ms > 0 ? sorted_ms / bit_ms : 0.0));
  }
  return true;
}

/// Ascending wall times of repeated Stage-1 runs and the last result.
struct Stage1Runs {
  std::vector<double> ms;
  typing::PerfectTypingResult result;
};

/// Times `runs` calls of `stage1`, a Stage-1 engine over one graph.
template <typename Fn>
bool TimeStage1(int runs, Fn&& stage1, Stage1Runs* out) {
  for (int r = 0; r < runs; ++r) {
    util::WallTimer t;
    util::StatusOr<typing::PerfectTypingResult> result = stage1();
    out->ms.push_back(t.ElapsedMillis());
    if (!result.ok()) return false;
    out->result = *std::move(result);
  }
  std::sort(out->ms.begin(), out->ms.end());
  return true;
}

/// `spec` with every type count times `scale`, generated with `seed`.
util::StatusOr<graph::DataGraph> Scaled(gen::DatasetSpec spec, int scale,
                                        uint64_t seed) {
  for (auto& t : spec.types) t.count *= static_cast<size_t>(scale);
  return gen::Generate(spec, seed);
}

// The stage3 rows' fixed k.
constexpr size_t kStage3FixedK = 10;

/// One timed run of auto-k (`auto_k`) or an extraction at kStage3FixedK
/// on DB1, either variant.
struct Stage3Run {
  double total_ms = 0;
  double stage1_ms = 0;
  double cluster_ms = 0;
  double stage3_ms = 0;
  Points points;
  size_t per_object_points = 0;
  size_t k = 0;
  size_t excess = 0;
  size_t deficit = 0;
  size_t classes = 0;
  size_t triples = 0;
};

/// "before": the same Stage 1 and ladder as the product, then the
/// per-object Stage 3 at every point and at the committed k.
bool RunStage3Before(graph::GraphView g, bool auto_k, Stage3Run* out) {
  util::WallTimer total;
  util::WallTimer t;
  auto stage1 = typing::PerfectTypingViaHashRefinement(g);
  if (!stage1.ok()) return false;
  out->stage1_ms = t.ElapsedMillis();
  t.Restart();
  cluster::ClusteringOptions copt;
  copt.target_num_types = auto_k ? 1 : kStage3FixedK;
  copt.record_snapshots = auto_k;
  copt.max_snapshot_types = kKneeMaxTypes;
  auto ladder = cluster::ClusterTypes(stage1->program, stage1->weight, copt);
  if (!ladder.ok()) return false;
  out->cluster_ms = t.ElapsedMillis();
  t.Restart();
  const typing::TypingProgram* program = &ladder->final_program;
  const std::vector<typing::TypeId>* map = &ladder->final_map;
  out->k = kStage3FixedK;
  if (auto_k) {
    for (const cluster::Snapshot& snap : ladder->snapshots) {
      auto defect = PerObjectStage3(
          snap.program, g, ObjectHomes(*stage1, snap.stage1_to_snapshot));
      if (!defect.ok()) return false;
      out->points.push_back(extract::SensitivityPoint{
          snap.num_types, snap.total_distance, defect->excess,
          defect->deficit, defect->defect()});
    }
    extract::KneeOptions knee;
    knee.max_types = kKneeMaxTypes;
    out->k = extract::FindKnee(out->points, knee).k;
    for (const cluster::Snapshot& snap : ladder->snapshots) {
      if (snap.num_types != out->k) continue;
      program = &snap.program;
      map = &snap.stage1_to_snapshot;
    }
  }
  auto defect = PerObjectStage3(*program, g, ObjectHomes(*stage1, *map));
  if (!defect.ok()) return false;
  out->excess = defect->excess;
  out->deficit = defect->deficit;
  out->stage3_ms = t.ElapsedMillis();
  out->total_ms = total.ElapsedMillis();
  out->per_object_points = out->points.size();
  return true;
}

/// "after": the product, its split read from its own StageTimings.
bool RunStage3After(graph::GraphView g, bool auto_k, Stage3Run* out) {
  util::WallTimer total;
  extract::ExtractionResult r;
  if (auto_k) {
    extract::KneeOptions knee;
    knee.max_types = kKneeMaxTypes;
    auto run = extract::ExtractAtKnee(g, {}, knee);
    if (!run.ok()) return false;
    out->points = run->points;
    out->per_object_points = run->per_object_points;
    out->k = run->knee.k;
    r = std::move(run->result);
    out->stage3_ms = r.timings.sweep_ms;
  } else {
    extract::ExtractorOptions opt;
    opt.target_num_types = kStage3FixedK;
    auto run = extract::SchemaExtractor(opt).Run(g);
    if (!run.ok()) return false;
    out->k = kStage3FixedK;
    r = *std::move(run);
    out->stage3_ms = r.timings.recast_ms;
  }
  out->total_ms = total.ElapsedMillis();
  out->stage1_ms = r.timings.stage1_ms;
  out->cluster_ms = r.timings.cluster_ms;
  out->excess = r.defect.excess;
  out->deficit = r.defect.deficit;
  out->classes = r.quotient_classes;
  out->triples = r.quotient_triples;
  return true;
}

/// Median of one field over `runs`.
template <typename Field>
double MedianOf(const std::vector<Stage3Run>& runs, Field field) {
  std::vector<double> v;
  for (const Stage3Run& r : runs) v.push_back(field(r));
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

/// Prints the stage3 rows: per DB1 scale and mode, `runs` alternating
/// before/after runs. Returns false on a failed run or when the variants
/// disagree.
bool BenchStage3(bool smoke, int runs) {
  const std::vector<int> scales =
      smoke ? std::vector<int>{1} : std::vector<int>{10, 100};
  for (int scale : scales) {
    auto g = Scaled(gen::Table1Datasets().front().spec, scale, 42);
    if (!g.ok()) return false;
    for (bool auto_k : {true, false}) {
      std::vector<Stage3Run> before(static_cast<size_t>(runs));
      std::vector<Stage3Run> after(static_cast<size_t>(runs));
      for (size_t r = 0; r < before.size(); ++r) {
        if (!RunStage3Before(*g, auto_k, &before[r]) ||
            !RunStage3After(*g, auto_k, &after[r])) {
          return false;
        }
      }
      const Stage3Run& b = before.back();
      const Stage3Run& a = after.back();
      if (!(b.points == a.points && b.k == a.k && b.excess == a.excess &&
            b.deficit == a.deficit)) {
        std::fprintf(stderr,
                     "FAIL: DB1 x%d %s: Stage 3 on the quotient differs from "
                     "the per-object Stage 3\n",
                     scale, auto_k ? "auto-k" : "fixed k");
        return false;
      }
      for (const std::vector<Stage3Run>* variant : {&before, &after}) {
        std::vector<double> total;
        for (const Stage3Run& r : *variant) total.push_back(r.total_ms);
        std::sort(total.begin(), total.end());
        std::printf(
            "{\"bench\":\"stage3\",\"variant\":\"%s\",\"dataset\":\"db1\","
            "\"scale\":%d,\"mode\":\"%s\",\"k\":%zu,\"objects\":%zu,"
            "\"edges\":%zu,\"classes\":%zu,\"triples\":%zu,\"points\":%zu,"
            "\"per_object_points\":%zu,\"runs\":%zu,"
            "\"total_ms_median\":%.3f,\"total_ms_q1\":%.3f,"
            "\"total_ms_q3\":%.3f,\"stage1_ms_median\":%.3f,"
            "\"cluster_ms_median\":%.3f,\"stage3_ms_median\":%.3f,"
            "\"hardware_concurrency\":%u}\n",
            variant == &before ? "before" : "after", scale,
            auto_k ? "auto" : "fixed", a.k, g->NumObjects(), g->NumEdges(),
            a.classes, a.triples, variant->back().points.size(),
            variant->back().per_object_points, total.size(),
            Quantile(total, 0.5), Quantile(total, 0.25),
            Quantile(total, 0.75),
            MedianOf(*variant, [](const Stage3Run& r) { return r.stage1_ms; }),
            MedianOf(*variant,
                     [](const Stage3Run& r) { return r.cluster_ms; }),
            MedianOf(*variant,
                     [](const Stage3Run& r) { return r.stage3_ms; }),
            std::thread::hardware_concurrency());
      }
    }
  }
  return true;
}

/// Prints the stage1_gfp rows: the literal §4.1 program against
/// PerfectTypingViaGfp. Returns false on a failed run or when the two
/// results differ.
bool BenchStage1Gfp(bool smoke, int runs) {
  struct Dataset {
    const char* name;
    int scale;
    bool before;  ///< also time the per-object oracle
  };
  const std::vector<Dataset> datasets =
      smoke ? std::vector<Dataset>{{"dbg", 1, true}, {"db1", 1, true}}
            : std::vector<Dataset>{{"dbg", 1, true},   {"dbg", 5, true},
                                   {"dbg", 25, true},  {"db1", 10, true},
                                   {"db1", 30, true},  {"db1", 100, false}};
  for (const Dataset& ds : datasets) {
    const bool dbg = std::strcmp(ds.name, "dbg") == 0;
    auto g = dbg ? Scaled(gen::DbgSpec(), ds.scale, 4242)
                 : Scaled(gen::Table1Datasets().front().spec, ds.scale, 42);
    if (!g.ok()) return false;
    auto bisim = typing::PerfectTypingViaHashRefinement(*g);
    if (!bisim.ok()) return false;
    Stage1Runs after;
    if (!TimeStage1(runs, [&] { return typing::PerfectTypingViaGfp(*g); },
                    &after)) {
      return false;
    }
    Stage1Runs before;
    if (ds.before) {
      if (!TimeStage1(runs, [&] { return typing::CandidateGfpOracle(*g); },
                      &before)) {
        return false;
      }
      const typing::PerfectTypingResult& a = after.result;
      const typing::PerfectTypingResult& b = before.result;
      if (!(a.program == b.program && a.home == b.home &&
            a.weight == b.weight)) {
        std::fprintf(stderr,
                     "FAIL: %s x%d: PerfectTypingViaGfp differs from the "
                     "per-object GFP oracle\n",
                     ds.name, ds.scale);
        return false;
      }
    }
    for (const Stage1Runs* r : {&before, &after}) {
      if (r->ms.empty()) continue;
      std::printf(
          "{\"bench\":\"stage1_gfp\",\"variant\":\"%s\",\"dataset\":\"%s\","
          "\"scale\":%d,\"objects\":%zu,\"types\":%zu,\"bisim_types\":%zu,"
          "\"runs\":%zu,\"stage1_ms_median\":%.3f,\"stage1_ms_q1\":%.3f,"
          "\"stage1_ms_q3\":%.3f,\"hardware_concurrency\":%u}\n",
          r == &before ? "before" : "after", ds.name, ds.scale,
          g->NumObjects(), r->result.program.NumTypes(),
          bisim->program.NumTypes(), r->ms.size(), Quantile(r->ms, 0.5),
          Quantile(r->ms, 0.25), Quantile(r->ms, 0.75),
          std::thread::hardware_concurrency());
    }
  }
  return true;
}

// Stage-2 spread rows and the kernel comparison stop at scale 25: the
// before rows ran the n x n matrix clusterer, which needs 284 MB at
// scale 100, and the all-pairs kernel scan grows the same way.
constexpr int kStage2RowMaxScale = 25;
constexpr int kStage2Runs = 5;

int Run(bool json, bool smoke, const std::string& variant) {
  if (json && !GreedyMatchesReference()) return 1;
  if (!json) {
    std::cout << "== Pipeline scalability (DBG-style data, refinement Stage "
                 "1) ==\n";
  }
  util::TablePrinter table;
  std::vector<std::string> kernel_lines;
  table.SetHeader({"scale", "objects", "links", "stage1 (ms)",
                   "stage1 types", "cluster->6 (ms)", "recast+defect (ms)",
                   "apply_delta (ms)", "total (ms)", "defect"});
  std::vector<int> scales = smoke ? std::vector<int>{1, 5}
                                  : std::vector<int>{1, 5, 10, 25, 100};
  for (int scale : scales) {
    auto g = Scaled(gen::DbgSpec(), scale, 4242);
    if (!g.ok()) return 1;

    util::WallTimer total;
    extract::ExtractorOptions opt;
    opt.target_num_types = 6;
    auto run = extract::SchemaExtractor(opt).Run(*g);
    if (!run.ok()) return 1;
    const typing::PerfectTypingResult* stage1 = &run->perfect;
    const extract::StageTimings& timings = run->timings;
    const double stage1_ms = timings.stage1_ms;
    const double cluster_ms = timings.cluster_ms;
    const double recast_ms = timings.recast_ms;
    double apply_delta_ms = BenchApplyDelta(graph::Freeze(*g));

    if (json) {
      PrintJsonPipelineRow(g->NumObjects(), g->NumEdges(),
                           stage1->program.NumTypes(), stage1_ms, cluster_ms,
                           recast_ms, apply_delta_ms);
    } else {
      table.AddRow({util::StringPrintf("%dx", scale),
                    util::StringPrintf("%zu", g->NumObjects()),
                    util::StringPrintf("%zu", g->NumEdges()),
                    util::StringPrintf("%.1f", stage1_ms),
                    util::StringPrintf("%zu", stage1->program.NumTypes()),
                    util::StringPrintf("%.1f", cluster_ms),
                    util::StringPrintf("%.1f", recast_ms),
                    util::StringPrintf("%.2f", apply_delta_ms),
                    util::StringPrintf("%.1f", total.ElapsedMillis()),
                    util::StringPrintf("%zu", run->defect.defect())});
    }
    if (scale > kStage2RowMaxScale) continue;
    if (json && !BenchStage2(*stage1, kStage2Runs, variant)) return 1;
    if (json && !BenchKneeSweeps(*g, scale, stage1->program.NumTypes(),
                                 kStage2Runs)) {
      return 1;
    }
    if (!BenchDistanceKernels(stage1->program, json, &kernel_lines)) return 1;
  }
  if (json && !BenchStage1Gfp(smoke, kStage2Runs)) return 1;
  if (json && !BenchStage3(smoke, kStage2Runs)) return 1;
  if (!json) {
    table.Print(std::cout);
    std::cout << "\n-- All-pairs distance kernel, sorted vs bit-parallel --\n";
    for (const std::string& line : kernel_lines) {
      std::cout << line << "\n";
    }
  }

  // Stage 1 alone keeps scaling far past where the O(T^2) clustering
  // becomes the bottleneck (T = stage-1 type count, which grows with the
  // data's irregularity).
  if (!smoke) {
    constexpr int kScale = 500;
    auto g = Scaled(gen::DbgSpec(), kScale, 4242);
    if (!g.ok()) return 1;
    util::WallTimer t1;
    auto stage1 = typing::PerfectTypingViaHashRefinement(*g);
    double stage1_ms = t1.ElapsedMillis();
    if (json) {
      PrintJsonRow(g->NumObjects(), g->NumEdges(), stage1_ms);
    } else {
      util::TablePrinter big;
      big.SetHeader(
          {"scale", "objects", "links", "stage1 (ms)", "stage1 types"});
      big.AddRow({util::StringPrintf("%dx", kScale),
                  util::StringPrintf("%zu", g->NumObjects()),
                  util::StringPrintf("%zu", g->NumEdges()),
                  util::StringPrintf("%.1f", stage1_ms),
                  util::StringPrintf("%zu", stage1->program.NumTypes())});
      std::cout << "\n-- Stage 1 only, larger scale --\n";
      big.Print(std::cout);
    }
  }

  if (!json) {
    std::cout << "\nReading: Stage 1 scales near-linearly in edges; Stage 2 "
                 "depends on the Stage-1 TYPE count\n(which grows with "
                 "irregularity, not raw size); the defect grows linearly "
                 "with the data since\nthe same fraction of objects misses "
                 "the same optional links.\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  std::string variant = "current";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--variant") == 0 && i + 1 < argc) {
      variant = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json] [--smoke] [--variant V]\n",
                   argv[0]);
      return 2;
    }
  }
  return Run(json, smoke, variant);
}
