#include "cluster/greedy.h"

#include <algorithm>
#include <limits>

#include "util/string_util.h"

namespace schemex::cluster {

namespace {

using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

/// Orders merge candidates the way a naive double loop would find them:
/// by cost, then by source id, then destination id with the empty-type
/// move losing all ties (it was checked last in the reference scan). The
/// incremental best-candidate cache below preserves this order exactly,
/// so the optimization cannot change results.
struct Candidate {
  TypeId source = -1;
  TypeId dest = -1;  // kEmptyType for the empty-type move
  size_t simple_d = 0;
  double cost = std::numeric_limits<double>::infinity();

  size_t DestRank() const {
    return dest == kEmptyType ? std::numeric_limits<size_t>::max()
                              : static_cast<size_t>(dest);
  }
  /// True if *this is a strictly better pick than `o` for the same source.
  /// Infinite-cost candidates never win (matching the reference scan,
  /// where `inf < inf` kept the empty sentinel and ended the clustering).
  bool BeatsAsDest(const Candidate& o) const {
    if (cost == std::numeric_limits<double>::infinity()) return false;
    if (cost != o.cost) return cost < o.cost;
    return DestRank() < o.DestRank();
  }
  /// True if *this beats `o` globally (across sources).
  bool BeatsGlobally(const Candidate& o) const {
    if (cost != o.cost) return cost < o.cost;
    if (source != o.source) return source < o.source;
    return DestRank() < o.DestRank();
  }
};

/// The greedy clusterer. Every merge step runs three phases:
///
///   M: apply the hypercube projection / link drop to the affected rule
///     bodies and re-encode them on the bit kernel (the only place the
///     BitSignatureIndex universe grows).
///   D: recompute the simple-distance matrix entries whose endpoints
///     changed.
///   B: restore every live source's cached best move, either by a full
///     rescan (when its cached pick may have got worse) or by folding in
///     just the candidates that may have got better.
///
/// It runs on the caller's thread. Sharding D and B across workers gave
/// at most 1.25x at 4 threads on a 4-core machine and lost on one core;
/// the B-phase rules below, which skip rescans, are where the time goes.
class GreedyClusterer {
 public:
  GreedyClusterer(const TypingProgram& stage1,
                  const std::vector<uint32_t>& weights,
                  const ClusteringOptions& options)
      : options_(options),
        n_(stage1.NumTypes()),
        names_(n_),
        sig_(n_),
        enc_(n_),
        weight_(n_),
        alive_(n_, true),
        changed_(n_, false),
        cluster_of_(n_),
        big_l_(stage1.NumDistinctTypedLinks()) {
    for (size_t i = 0; i < n_; ++i) {
      names_[i] = stage1.type(static_cast<TypeId>(i)).name;
      sig_[i] = stage1.type(static_cast<TypeId>(i)).signature;
      weight_[i] = weights[i];
      cluster_of_[i] = static_cast<TypeId>(i);
    }
    InitDistances();
    best_.resize(n_);
    for (size_t s = 0; s < n_; ++s) RecomputeBest(s);
  }

  util::StatusOr<ClusteringResult> Run(const typing::ExecOptions& exec) {
    ClusteringResult result;
    size_t live = n_;
    if (options_.record_snapshots) {
      result.snapshots.push_back(MakeSnapshot(0.0));
    }
    double total = 0.0;
    while (live > options_.target_num_types) {
      SCHEMEX_RETURN_IF_ERROR(exec.Poll());
      Candidate best = PickGlobalBest();
      if (best.source < 0) break;  // nothing mergeable (live <= 1)
      Apply(best);
      --live;
      total += best.cost;
      result.steps.push_back(MergeStep{live, best.source, best.dest,
                                       best.simple_d, best.cost});
      if (options_.record_snapshots) {
        result.snapshots.push_back(MakeSnapshot(total));
      }
    }
    result.total_distance = total;
    Snapshot fin = MakeSnapshot(total);
    result.final_program = std::move(fin.program);
    result.final_map = std::move(fin.stage1_to_snapshot);
    result.final_weights.assign(result.final_program.NumTypes(), 0);
    for (size_t i = 0; i < n_; ++i) {
      TypeId t = result.final_map[i];
      if (t != kEmptyType) {
        // Weight accumulates per *Stage-1* home population, which is what
        // the original weights measured.
        result.final_weights[static_cast<size_t>(t)] += initial_weight_[i];
      }
    }
    return result;
  }

 private:
  size_t D(size_t a, size_t b) const { return d_[a * n_ + b]; }
  void SetD(size_t a, size_t b, size_t v) {
    d_[a * n_ + b] = static_cast<uint32_t>(v);
    d_[b * n_ + a] = static_cast<uint32_t>(v);
  }
  void RefreshD(size_t a, size_t b) {
    SetD(a, b, BitSignatureIndex::Distance(enc_[a], enc_[b]));
  }

  void InitDistances() {
    initial_weight_.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
      initial_weight_[i] = static_cast<uint64_t>(weight_[i]);
    }
    // Encoding in type order fixes the bit universe deterministically.
    for (size_t i = 0; i < n_; ++i) enc_[i] = index_.Encode(sig_[i]);
    d_.assign(n_ * n_, 0);
    for (size_t a = 0; a < n_; ++a) {
      for (size_t b = a + 1; b < n_; ++b) RefreshD(a, b);
    }
  }

  double Cost(size_t dest, size_t source, size_t dist) const {
    return WeightedDistance(options_.psi, weight_[dest], weight_[source],
                            dist, big_l_);
  }

  Candidate MakeCandidate(size_t s, size_t t) const {
    return Candidate{static_cast<TypeId>(s), static_cast<TypeId>(t),
                     D(s, t), Cost(t, s, D(s, t))};
  }

  Candidate MakeEmptyCandidate(size_t s) const {
    return Candidate{static_cast<TypeId>(s), kEmptyType, sig_[s].size(),
                     WeightedDistance(options_.psi,
                                      std::max(empty_weight_, 1.0),
                                      weight_[s], sig_[s].size(), big_l_)};
  }

  /// Full rescan of the best move out of source `s`.
  void RecomputeBest(size_t s) {
    Candidate best;
    best.source = static_cast<TypeId>(s);
    for (size_t t = 0; t < n_; ++t) {
      if (t == s || !alive_[t]) continue;
      Candidate c = MakeCandidate(s, t);
      if (c.BeatsAsDest(best)) best = c;
    }
    if (options_.enable_empty_type) {
      Candidate c = MakeEmptyCandidate(s);
      if (c.BeatsAsDest(best)) best = c;
    }
    best_[s] = best;
  }

  /// Folds candidate s -> t into s's cached best if it beats it.
  void Fold(size_t s, size_t t) {
    Candidate cand = MakeCandidate(s, t);
    if (cand.BeatsAsDest(best_[s])) best_[s] = cand;
  }

  Candidate PickGlobalBest() const {
    Candidate best;  // source = -1, cost = inf
    for (size_t s = 0; s < n_; ++s) {
      if (!alive_[s]) continue;
      if (best_[s].dest == -1 && best_[s].cost ==
                                     std::numeric_limits<double>::infinity()) {
        continue;  // no destination available (single cluster, no empty)
      }
      if (best.source < 0 || best_[s].BeatsGlobally(best)) best = best_[s];
    }
    return best;
  }

  bool PsiDependsOnDestWeight() const {
    switch (options_.psi) {
      case PsiKind::kPsi1:
      case PsiKind::kPsi3:
      case PsiKind::kPsi5:
        return true;
      case PsiKind::kSimpleD:
      case PsiKind::kPsi2:
      case PsiKind::kPsi4:
        return false;
    }
    return true;
  }

  void Apply(const Candidate& c) {
    size_t s = static_cast<size_t>(c.source);
    alive_[s] = false;
    for (TypeId& cl : cluster_of_) {
      if (cl == c.source) cl = c.dest;
    }

    // Phase M: mutate the affected rule bodies and re-encode them. Typed
    // links retargeted to c.dest enter the bit universe here.
    const bool empty_dest = c.dest == kEmptyType;
    std::fill(changed_.begin(), changed_.end(), false);
    changed_list_.clear();
    for (size_t i = 0; i < n_; ++i) {
      if (!alive_[i]) continue;
      bool references_s = false;
      for (const typing::TypedLink& l : sig_[i].links()) {
        if (l.target == c.source) {
          references_s = true;
          break;
        }
      }
      if (!references_s) continue;
      if (empty_dest) {
        // Typed links targeting s can no longer be witnessed by
        // classified objects; drop them from the surviving rule body.
        TypeSignature next = sig_[i];
        for (const typing::TypedLink& l : sig_[i].links()) {
          if (l.target == c.source) next.Erase(l);
        }
        sig_[i] = std::move(next);
      } else {
        // Hypercube projection: every reference to s becomes one to t.
        sig_[i].RemapTarget(c.source, c.dest);
      }
      enc_[i] = index_.Encode(sig_[i]);
      changed_[i] = true;
      changed_list_.push_back(i);
    }
    if (empty_dest) {
      empty_weight_ += weight_[s];
    } else {
      weight_[static_cast<size_t>(c.dest)] += weight_[s];
    }

    // Phase D: refresh every live pair with a changed endpoint, once.
    for (size_t a : changed_list_) {
      for (size_t b = 0; b < n_; ++b) {
        if (b != a && alive_[b] && (!changed_[b] || b > a)) RefreshD(a, b);
      }
    }

    // Phase B: restore every cached best to the true minimum over the
    // fresh state. A cached pick must be rescanned only if it may have
    // got worse: the source itself changed; its destination died or
    // changed body; or the destination's weight grew (c.dest, or the
    // empty type) under a psi kind that prices it. Otherwise only
    // candidates that could have *improved* are folded in. The minimum
    // under (cost, dest-rank) is unique, so rescans and fold-ins agree.
    const bool dest_weight_priced = PsiDependsOnDestWeight();
    const bool empty_weight_changed =
        empty_dest && options_.enable_empty_type && dest_weight_priced;
    for (size_t j = 0; j < n_; ++j) {
      if (!alive_[j]) continue;
      const Candidate& cached = best_[j];
      bool recompute =
          changed_[j] || cached.dest == c.source || empty_weight_changed ||
          (!empty_dest && (j == static_cast<size_t>(c.dest) ||
                           (dest_weight_priced && cached.dest == c.dest))) ||
          (cached.dest >= 0 && changed_[static_cast<size_t>(cached.dest)]);
      if (recompute) {
        RecomputeBest(j);
        continue;
      }
      for (size_t cd : changed_list_) {
        if (cd != j) Fold(j, cd);
      }
      if (!empty_dest && j != static_cast<size_t>(c.dest)) {
        // The destination got heavier: moves into it may have cheapened.
        Fold(j, static_cast<size_t>(c.dest));
      }
    }
  }

  Snapshot MakeSnapshot(double total) const {
    Snapshot snap;
    std::vector<TypeId> dense(n_, kEmptyType);
    for (size_t i = 0; i < n_; ++i) {
      if (!alive_[i]) continue;
      dense[i] = static_cast<TypeId>(snap.program.NumTypes());
      TypeSignature sig = sig_[i];
      snap.program.AddType(names_[i], std::move(sig));
    }
    // Snapshot signatures still reference cluster indices; remap to dense.
    for (size_t t = 0; t < snap.program.NumTypes(); ++t) {
      snap.program.type(static_cast<TypeId>(t))
          .signature.RemapTargets(dense);
    }
    snap.stage1_to_snapshot.resize(n_);
    for (size_t i = 0; i < n_; ++i) {
      TypeId cl = cluster_of_[i];
      snap.stage1_to_snapshot[i] =
          cl == kEmptyType ? kEmptyType : dense[static_cast<size_t>(cl)];
    }
    snap.num_types = snap.program.NumTypes();
    snap.total_distance = total;
    return snap;
  }

  const ClusteringOptions options_;
  const size_t n_;
  std::vector<std::string> names_;
  std::vector<TypeSignature> sig_;
  BitSignatureIndex index_;
  // sig_[i] on the bit kernel, kept fresh. OWNER: index_ (bit positions
  // are only meaningful against the index that assigned them).
  std::vector<BitSignature> enc_;
  std::vector<double> weight_;
  std::vector<uint64_t> initial_weight_;
  std::vector<bool> alive_;
  std::vector<bool> changed_;         // per-merge scratch
  std::vector<size_t> changed_list_;  // ascending ids of changed_ entries
  std::vector<TypeId> cluster_of_;
  std::vector<uint32_t> d_;        // flat n*n simple-distance matrix
  std::vector<Candidate> best_;    // per live source: its best move
  double empty_weight_ = 0.0;
  const size_t big_l_;
};

}  // namespace

util::StatusOr<ClusteringResult> ClusterTypes(
    const TypingProgram& stage1, const std::vector<uint32_t>& weights,
    const ClusteringOptions& options, const typing::ExecOptions& exec) {
  if (weights.size() != stage1.NumTypes()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "weights (%zu) must match number of types (%zu)", weights.size(),
        stage1.NumTypes()));
  }
  if (options.target_num_types < 1) {
    return util::Status::InvalidArgument("target_num_types must be >= 1");
  }
  SCHEMEX_RETURN_IF_ERROR(stage1.Validate());
  GreedyClusterer clusterer(stage1, weights, options);
  return clusterer.Run(exec);
}

}  // namespace schemex::cluster
