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
//               pipeline row (scales 1, 5, 25, 100) —
//                 {"bench":"scale","algo":"hash","objects":N,
//                  "edges":N,"stage1_types":N,"threads":1,"stage1_ms":F,
//                  "cluster_ms":F,"recast_ms":F,"apply_delta_ms":F,
//                  "speedup":1.000}
//                 apply_delta_ms is the wall-clock of applying a
//                 64-op mutation batch to a DeltaOverlay over the
//                 frozen graph (best of 3) — the generation-swap cost a
//                 service apply_delta pays before any retyping.
//               stage1-only row (scale 500) —
//                 {"bench":"scale","algo":"hash","objects":N,
//                  "edges":N,"threads":1,"stage1_ms":F,"speedup":1.000}
//               stage2_greedy row (scales 1, 5, 25) —
//                 {"bench":"stage2_greedy","variant":V,"types":N,
//                  "runs":R,"cluster_ms_median":F,"cluster_ms_q1":F,
//                  "cluster_ms_q3":F,"cluster_ms_min":F,
//                  "cluster_ms_max":F,"hardware_concurrency":N}
//                 R cold ClusterTypes runs (psi2, k = 6) over the
//                 scale's Stage-1 program; quartiles interpolate
//                 linearly between the sorted runs.
//               cluster_kernel row (scales 1, 5, 25) —
//                 {"bench":"cluster_kernel","kernel":"sorted"|"bit",
//                  "types":N,"pairs":N,"reps":N,"ms":F,"speedup":F}
//               knee_sweep row (max_k 20 at scales 1, 5, 25; max_k 0
//               at scales 1, 5) —
//                 {"bench":"knee_sweep","scale":S,"types":N,"max_k":M,
//                  "points":P,"knee_k":K,"runs":R,"sweep_ms_median":F,
//                  "sweep_ms_q1":F,"sweep_ms_q3":F,"sweep_ms_min":F,
//                  "sweep_ms_max":F,"hardware_concurrency":N}
//                 R cold SensitivitySweep runs (Stage 1, Stage 2 down
//                 to k = 1, a recast + defect per k <= M; M = 0 recasts
//                 every k) with default options; K is FindKnee's pick
//                 under max_types = M. Before the rows print, the capped
//                 points must equal the full sweep's points with k <= 20
//                 (at scale 25, where the full sweep takes minutes, each
//                 capped point must equal a cold extraction at its k);
//                 a mismatch exits 1.
//   --smoke   scales {1, 5} only and skip the large scales (CI-sized)
//   --variant V
//             the stage2_greedy rows' "variant" label (default
//             "current"). Before/after rows come from this file built
//             once per library version, run alternately.
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
#include "graph/delta_overlay.h"
#include "graph/frozen_graph.h"
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

/// Times `runs` cold Stage-2 runs (psi2, k = 6) over `stage1` and prints
/// their spread as a stage2_greedy row.
bool BenchStage2(const typing::PerfectTypingResult& stage1, int runs,
                 const std::string& variant) {
  cluster::ClusteringOptions copt;
  copt.target_num_types = 6;
  std::vector<double> ms;
  for (int r = 0; r < runs; ++r) {
    util::WallTimer t;
    auto clustering =
        cluster::ClusterTypes(stage1.program, stage1.weight, copt);
    ms.push_back(t.ElapsedMillis());
    if (!clustering.ok()) return false;
  }
  std::sort(ms.begin(), ms.end());
  std::printf(
      "{\"bench\":\"stage2_greedy\",\"variant\":\"%s\",\"types\":%zu,"
      "\"runs\":%d,\"cluster_ms_median\":%.3f,\"cluster_ms_q1\":%.3f,"
      "\"cluster_ms_q3\":%.3f,\"cluster_ms_min\":%.3f,"
      "\"cluster_ms_max\":%.3f,\"hardware_concurrency\":%u}\n",
      variant.c_str(), stage1.program.NumTypes(), runs, Quantile(ms, 0.5),
      Quantile(ms, 0.25), Quantile(ms, 0.75), ms.front(), ms.back(),
      std::thread::hardware_concurrency());
  return true;
}

using Points = std::vector<extract::SensitivityPoint>;

/// Timed cold knee sweeps: ascending wall times and the last run's points.
struct SweepRuns {
  std::vector<double> ms;
  Points points;
};

/// Runs `runs` cold SensitivitySweeps capped at `max_k` (0 = every k).
bool TimeKneeSweep(graph::GraphView g, size_t max_k, int runs,
                   SweepRuns* out) {
  for (int r = 0; r < runs; ++r) {
    util::WallTimer t;
    auto sweep = extract::SensitivitySweep(g, {}, /*min_k=*/1, max_k);
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
// largest scale whose full sweep (one recast per Stage-1 type) is timed.
constexpr size_t kKneeMaxTypes = 20;
constexpr int kFullSweepMaxScale = 5;

/// Prints the knee_sweep rows for one scale once the capped points have
/// been checked exact; returns false on a failed run or a mismatch.
bool BenchKneeSweeps(graph::GraphView g, int scale, size_t types,
                     int runs) {
  SweepRuns capped;
  if (!TimeKneeSweep(g, kKneeMaxTypes, runs, &capped)) return false;
  SweepRuns full;
  bool exact = false;
  if (scale <= kFullSweepMaxScale) {
    if (!TimeKneeSweep(g, 0, runs, &full)) return false;
    Points tail;
    for (const extract::SensitivityPoint& p : full.points) {
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
  if (!full.ms.empty()) PrintKneeRow(scale, types, 0, full);
  PrintKneeRow(scale, types, kKneeMaxTypes, capped);
  return true;
}

/// Wall-clock of a 64-op mutation batch (adds, links, deletes) against a
/// fresh DeltaOverlay over `frozen`, best of 3 — the pure overlay cost of
/// a service apply_delta, before online typing or re-extraction.
double BenchApplyDelta(const std::shared_ptr<const graph::FrozenGraph>& frozen) {
  std::vector<graph::ObjectId> complexes;
  for (graph::ObjectId o = 0; o < frozen->NumObjects(); ++o) {
    if (frozen->IsComplex(o)) complexes.push_back(o);
  }
  if (complexes.empty()) return 0.0;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    graph::DeltaOverlay ov(frozen);
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

// Stage-2 spread rows and the kernel comparison stop at scale 25: the
// before rows ran the n x n matrix clusterer, which needs 284 MB at
// scale 100, and the all-pairs kernel scan grows the same way.
constexpr int kStage2RowMaxScale = 25;
constexpr int kStage2Runs = 5;

int Run(bool json, bool smoke, const std::string& variant) {
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
                                  : std::vector<int>{1, 5, 25, 100};
  for (int scale : scales) {
    gen::DatasetSpec spec = gen::DbgSpec();
    for (auto& t : spec.types) t.count *= static_cast<size_t>(scale);
    auto g = gen::Generate(spec, 4242);
    if (!g.ok()) return 1;

    util::WallTimer total;
    util::WallTimer t1;
    auto stage1 = typing::PerfectTypingViaHashRefinement(*g);
    double stage1_ms = t1.ElapsedMillis();

    util::WallTimer t2;
    cluster::ClusteringOptions copt;
    copt.target_num_types = 6;
    auto clustering =
        cluster::ClusterTypes(stage1->program, stage1->weight, copt);
    double cluster_ms = t2.ElapsedMillis();

    util::WallTimer t3;
    std::vector<std::vector<typing::TypeId>> homes(g->NumObjects());
    for (size_t o = 0; o < stage1->home.size(); ++o) {
      if (stage1->home[o] == typing::kInvalidType) continue;
      typing::TypeId m =
          clustering->final_map[static_cast<size_t>(stage1->home[o])];
      if (m != cluster::kEmptyType) homes[o] = {m};
    }
    auto recast = typing::Recast(clustering->final_program, *g, homes);
    auto defect = typing::ComputeDefect(clustering->final_program, *g,
                                        recast->assignment);
    double recast_ms = t3.ElapsedMillis();
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
                    util::StringPrintf("%zu", defect.defect())});
    }
    if (scale > kStage2RowMaxScale) continue;
    if (json && !BenchStage2(*stage1, kStage2Runs, variant)) return 1;
    if (json && !BenchKneeSweeps(*g, scale, stage1->program.NumTypes(),
                                 kStage2Runs)) {
      return 1;
    }
    if (!BenchDistanceKernels(stage1->program, json, &kernel_lines)) return 1;
  }
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
    gen::DatasetSpec spec = gen::DbgSpec();
    for (auto& t : spec.types) t.count *= static_cast<size_t>(kScale);
    auto g = gen::Generate(spec, 4242);
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
