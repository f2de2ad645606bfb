#include "cluster/greedy.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/string_util.h"

namespace schemex::cluster {

namespace {

using typing::TypedLink;
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

/// The greedy clusterer. It stores no distance matrix: rule bodies are
/// sets of interned link ids, each id keeps a posting list of the live
/// types that carry it, and each type keeps the ids of the links that
/// target it. A full distance row d(s, ·) = |s| + |t| − 2|s ∩ t| then
/// costs one walk over s's postings plus one pass over the live types.
/// The (at most 64) links the most types carried at the start are also
/// bits of a per-type mask: the row skips their postings and adds
/// popcount(hot[s] & hot[t]) in the pass over the live types instead.
/// Every merge step runs two phases:
///
///   M: apply the hypercube projection / link drop to the rule bodies
///     that reference the source (found through the postings of the ids
///     that target it), interning each retargeted link.
///   B: restore every live source's cached best move, either by a full
///     rescan over its own fresh row (when its cached pick may have got
///     worse) or by folding in just the candidates that may have got
///     better, read from the rescan rows of the changed types and of the
///     destination.
///
/// Under d, ψ2 and ψ4 every move out of s costs f(d)·g(w_s) with f
/// strictly increasing on finite values, so the cheapest move under
/// (cost, dest-rank) is the nearest live type under (d, id): a rescan
/// prices that one candidate and the empty move, and a fold prices only
/// rows no farther than the cached pick. ψ1, ψ3 and ψ5 price the
/// destination's weight too and price every candidate.
///
/// It runs on the caller's thread.
class GreedyClusterer {
 public:
  GreedyClusterer(const TypingProgram& stage1,
                  const std::vector<uint32_t>& weights,
                  const ClusteringOptions& options)
      : options_(options),
        n_(stage1.NumTypes()),
        names_(n_),
        body_(n_),
        targeting_(n_),
        weight_(n_),
        changed_(n_, false),
        shape_(n_),
        shared_(n_, 0),
        row_(n_, 0),
        cluster_of_(n_),
        best_(n_),
        dest_priced_(PsiDependsOnDestWeight(options.psi)),
        big_l_(stage1.NumDistinctTypedLinks()) {
    InternLinks(stage1);
    PickHotLinks();
    for (size_t i = 0; i < n_; ++i) {
      names_[i] = stage1.type(static_cast<TypeId>(i)).name;
      weight_[i] = weights[i];
      cluster_of_[i] = static_cast<TypeId>(i);
      live_.push_back(static_cast<uint32_t>(i));
    }
  }

  util::StatusOr<ClusteringResult> Run(const typing::ExecOptions& exec,
                                       const std::vector<uint32_t>& weights) {
    ClusteringResult ladder;
    // The initial pass: every type's best move. It is skipped when no
    // merge is needed.
    if (live_.size() > options_.target_num_types) {
      for (size_t s = 0; s < n_; ++s) {
        if (s % kClusterCancelPollRows == 0) {
          SCHEMEX_RETURN_IF_ERROR(exec.Poll());
        }
        RecomputeBest(s);
      }
    }
    // Every step removes one live type, so a capped run still records
    // one snapshot per k from min(n, cap) down.
    auto record = [this, &ladder](double total) {
      const size_t cap = options_.max_snapshot_types;
      if (options_.record_snapshots && (cap == 0 || live_.size() <= cap)) {
        ladder.snapshots.push_back(MakeSnapshot(total));
      }
    };
    record(0.0);
    double total = 0.0;
    while (live_.size() > options_.target_num_types) {
      SCHEMEX_RETURN_IF_ERROR(exec.Poll());
      Candidate best = PickGlobalBest();
      if (best.source < 0) break;  // nothing mergeable (live <= 1)
      Apply(best);
      total += best.cost;
      ladder.steps.push_back(MergeStep{live_.size(), best.source, best.dest,
                                       best.simple_d, best.cost});
      record(total);
    }
    // The result is the ladder's own last rung.
    ladder.counters = counters_;
    ClusteringResult result =
        ClusteringAtSnapshot(ladder, MakeSnapshot(total), weights);
    result.snapshots = std::move(ladder.snapshots);
    return result;
  }

 private:
  /// Interns the program's distinct typed links in TypedLink order, so
  /// every body starts sorted by id and every targeting_ list starts
  /// sorted by (direction, label).
  void InternLinks(const TypingProgram& stage1) {
    for (const typing::TypeDef& t : stage1.types()) {
      links_.insert(links_.end(), t.signature.links().begin(),
                    t.signature.links().end());
    }
    std::sort(links_.begin(), links_.end());
    links_.erase(std::unique(links_.begin(), links_.end()), links_.end());
    postings_.resize(links_.size());
    hot_bit_.assign(links_.size(), 0);
    for (size_t id = 0; id < links_.size(); ++id) {
      if (links_[id].target >= 0) {
        targeting_[static_cast<size_t>(links_[id].target)].push_back(
            static_cast<uint32_t>(id));
      }
    }
    for (size_t i = 0; i < n_; ++i) {
      for (const TypedLink& l :
           stage1.type(static_cast<TypeId>(i)).signature.links()) {
        auto id = static_cast<uint32_t>(
            std::lower_bound(links_.begin(), links_.end(), l) -
            links_.begin());
        body_[i].push_back(id);
        postings_[id].push_back(static_cast<uint32_t>(i));
      }
      shape_[i].size = static_cast<uint32_t>(body_[i].size());
    }
  }

  /// Gives the (at most 64) ids with the longest posting lists, ties to
  /// the lower id, one mask bit each; ids fewer than two types carry
  /// stay unmasked. Ids interned later are never masked. Every id keeps
  /// its posting list, which Phase M reads.
  void PickHotLinks() {
    std::vector<uint32_t> ids;
    for (size_t id = 0; id < links_.size(); ++id) {
      if (postings_[id].size() >= 2) ids.push_back(static_cast<uint32_t>(id));
    }
    auto longer = [this](uint32_t a, uint32_t b) {
      if (postings_[a].size() != postings_[b].size()) {
        return postings_[a].size() > postings_[b].size();
      }
      return a < b;
    };
    const size_t hot = std::min<size_t>(ids.size(), 64);
    std::partial_sort(ids.begin(), ids.begin() + static_cast<ptrdiff_t>(hot),
                      ids.end(), longer);
    for (size_t b = 0; b < hot; ++b) hot_bit_[ids[b]] = uint64_t{1} << b;
    for (size_t i = 0; i < n_; ++i) {
      for (uint32_t id : body_[i]) shape_[i].hot |= hot_bit_[id];
    }
  }

  static constexpr uint32_t kNoType = std::numeric_limits<uint32_t>::max();

  /// Fills row_[t] = d(s, t) for every live t: counts |s ∩ t| along the
  /// postings of s's unmasked links, then derives each distance in one
  /// pass over the live types, adding the shared masked links and
  /// resetting the counts (postings hold live types only). Returns the
  /// live t != s nearest to s (least d, then least id), or kNoType.
  uint32_t ComputeRow(size_t s) {
    ++counters_.rows_computed;
    for (uint32_t id : body_[s]) {
      if (hot_bit_[id] != 0) continue;
      counters_.postings_walked += postings_[id].size();
      for (uint32_t t : postings_[id]) ++shared_[t];
    }
    const Shape src = shape_[s];
    uint32_t nearest = kNoType;
    uint32_t nearest_d = std::numeric_limits<uint32_t>::max();
    for (uint32_t t : live_) {
      const Shape dst = shape_[t];
      const uint32_t common =
          shared_[t] + static_cast<uint32_t>(std::popcount(src.hot & dst.hot));
      const uint32_t d = src.size + dst.size - 2 * common;
      row_[t] = d;
      shared_[t] = 0;
      if (d < nearest_d && t != s) {
        nearest = t;
        nearest_d = d;
      }
    }
    return nearest;
  }

  Candidate MakeCandidate(size_t s, size_t t, size_t d) {
    ++counters_.candidates_priced;
    return Candidate{static_cast<TypeId>(s), static_cast<TypeId>(t), d,
                     WeightedDistance(options_.psi, weight_[t], weight_[s],
                                      d, big_l_)};
  }

  Candidate MakeEmptyCandidate(size_t s) {
    ++counters_.candidates_priced;
    const size_t size_s = body_[s].size();
    return Candidate{static_cast<TypeId>(s), kEmptyType, size_s,
                     WeightedDistance(options_.psi,
                                      std::max(empty_weight_, 1.0),
                                      weight_[s], size_s, big_l_)};
  }

  /// Full rescan of the best move out of source `s`; row_ keeps its row.
  void RecomputeBest(size_t s) {
    const uint32_t nearest = ComputeRow(s);
    Candidate best;
    best.source = static_cast<TypeId>(s);
    if (!dest_priced_) {
      if (nearest != kNoType) {
        Candidate c = MakeCandidate(s, nearest, row_[nearest]);
        if (c.BeatsAsDest(best)) best = c;
      }
    } else {
      for (uint32_t t : live_) {
        if (t == s) continue;
        Candidate c = MakeCandidate(s, t, row_[t]);
        if (c.BeatsAsDest(best)) best = c;
      }
    }
    if (options_.enable_empty_type) {
      Candidate c = MakeEmptyCandidate(s);
      if (c.BeatsAsDest(best)) best = c;
    }
    best_[s] = best;
  }

  /// Folds the moves into `t`, read from t's row in row_ (d is
  /// symmetric), into the cached picks of the fold sources. Under a
  /// source-priced ψ a row farther than a finite cached pick costs more,
  /// so it is skipped unpriced.
  void FoldRow(size_t t) {
    for (uint32_t j : fold_) {
      Candidate& cached = best_[j];
      if (!dest_priced_ &&
          cached.cost != std::numeric_limits<double>::infinity() &&
          row_[j] > cached.simple_d) {
        continue;
      }
      Candidate cand = MakeCandidate(j, t, row_[j]);
      if (cand.BeatsAsDest(cached)) cached = cand;
    }
  }

  Candidate PickGlobalBest() const {
    Candidate best;  // source = -1, cost = inf
    for (uint32_t s : live_) {
      if (best_[s].dest == -1 && best_[s].cost ==
                                     std::numeric_limits<double>::infinity()) {
        continue;  // no destination available (single cluster, no empty)
      }
      if (best.source < 0 || best_[s].BeatsGlobally(best)) best = best_[s];
    }
    return best;
  }

  static bool PsiDependsOnDestWeight(PsiKind psi) {
    switch (psi) {
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

  /// Removes type `t` from `posting`, which holds it (order is not kept).
  static void ErasePosting(std::vector<uint32_t>& posting, uint32_t t) {
    auto it = std::find(posting.begin(), posting.end(), t);
    *it = posting.back();
    posting.pop_back();
  }

  /// Points every live link targeting `from` at `to`: remap_[id] becomes
  /// the id of the same (direction, label) link into `to`, interned if
  /// new, and `from`'s ids merge into `to`'s list, which stays sorted by
  /// (direction, label). Ids no live body carries are dropped.
  void RetargetIds(size_t from, size_t to) {
    remap_.resize(links_.size());
    auto key = [this](uint32_t id) {
      return std::pair(links_[id].dir, links_[id].label);
    };
    const std::vector<uint32_t>& src = targeting_[from];
    std::vector<uint32_t>& dst = targeting_[to];
    std::vector<uint32_t> merged;
    merged.reserve(src.size() + dst.size());
    size_t j = 0;
    for (uint32_t id : src) {
      if (postings_[id].empty()) continue;
      while (j < dst.size() && key(dst[j]) < key(id)) {
        merged.push_back(dst[j++]);
      }
      if (j < dst.size() && key(dst[j]) == key(id)) {
        remap_[id] = dst[j];
        merged.push_back(dst[j++]);
        continue;
      }
      remap_[id] = static_cast<uint32_t>(links_.size());
      merged.push_back(remap_[id]);
      TypedLink moved = links_[id];
      moved.target = static_cast<TypeId>(to);
      links_.push_back(moved);
      postings_.emplace_back();
      hot_bit_.push_back(0);
    }
    merged.insert(merged.end(), dst.begin() + static_cast<ptrdiff_t>(j),
                  dst.end());
    dst = std::move(merged);
  }

  /// Drops body i's links into `from`; unless they go to the empty type,
  /// adds their retargeted ids (remap_) that the body does not already
  /// carry. The type's shape follows its body.
  void RewriteBody(size_t i, TypeId from, bool empty_dest) {
    std::vector<uint32_t>& body = body_[i];
    Shape& shape = shape_[i];
    moved_.clear();
    size_t keep = 0;
    for (uint32_t id : body) {
      if (links_[id].target != from) {
        body[keep++] = id;
        continue;
      }
      shape.hot &= ~hot_bit_[id];
      if (!empty_dest) moved_.push_back(remap_[id]);
    }
    body.resize(keep);
    for (uint32_t id : moved_) {
      if (std::binary_search(body.begin(),
                             body.begin() + static_cast<ptrdiff_t>(keep),
                             id)) {
        continue;
      }
      body.push_back(id);
      postings_[id].push_back(static_cast<uint32_t>(i));
      shape.hot |= hot_bit_[id];
    }
    std::sort(body.begin(), body.end());
    shape.size = static_cast<uint32_t>(body.size());
  }

  void Apply(const Candidate& c) {
    const size_t s = static_cast<size_t>(c.source);
    const bool empty_dest = c.dest == kEmptyType;
    live_.erase(std::lower_bound(live_.begin(), live_.end(), s));
    for (TypeId& cl : cluster_of_) {
      if (cl == c.source) cl = c.dest;
    }
    for (uint32_t id : body_[s]) {
      ErasePosting(postings_[id], static_cast<uint32_t>(s));
    }
    body_[s] = {};
    shape_[s] = Shape{};

    // Phase M: the live types referencing s are the postings of the ids
    // that target it. Rewrite their bodies; afterwards no live body
    // carries those ids.
    for (size_t i : changed_list_) changed_[i] = false;
    changed_list_.clear();
    for (uint32_t id : targeting_[s]) {
      for (uint32_t i : postings_[id]) {
        if (changed_[i]) continue;
        changed_[i] = true;
        changed_list_.push_back(i);
      }
    }
    std::sort(changed_list_.begin(), changed_list_.end());
    if (!empty_dest) RetargetIds(s, static_cast<size_t>(c.dest));
    // With an empty destination, typed links targeting s can no longer
    // be witnessed by classified objects; they are dropped.
    for (size_t i : changed_list_) RewriteBody(i, c.source, empty_dest);
    for (uint32_t id : targeting_[s]) postings_[id] = {};
    targeting_[s] = {};
    if (empty_dest) {
      empty_weight_ += weight_[s];
    } else {
      weight_[static_cast<size_t>(c.dest)] += weight_[s];
    }

    // Phase B: restore every cached best to the true minimum over the
    // fresh state. A cached pick must be rescanned only if it may have
    // got worse: the source itself changed; its destination died or
    // changed body; or the destination's weight grew (c.dest, or the
    // empty type) under a psi kind that prices it. Otherwise only
    // candidates that could have *improved* are folded in: the moves
    // into the changed types and into the destination. Those are all
    // rescanned, so each folds its rescan row. The minimum under (cost,
    // dest-rank) is unique, so rescans and fold-ins agree, and fold-ins
    // may run in any order.
    const bool empty_weight_changed =
        empty_dest && options_.enable_empty_type && dest_priced_;
    rescan_.clear();
    fold_.clear();
    for (uint32_t j : live_) {
      const Candidate& cached = best_[j];
      uint64_t* reason = nullptr;
      if (changed_[j]) {
        reason = &counters_.rescans_own_body_changed;
      } else if (cached.dest == c.source) {
        reason = &counters_.rescans_dest_died;
      } else if (cached.dest >= 0 &&
                 changed_[static_cast<size_t>(cached.dest)]) {
        reason = &counters_.rescans_dest_changed;
      } else if (!empty_dest && j == static_cast<size_t>(c.dest)) {
        reason = &counters_.rescans_is_dest;
      } else if (empty_weight_changed ||
                 (!empty_dest && dest_priced_ && cached.dest == c.dest)) {
        reason = &counters_.rescans_dest_weight_priced;
      }
      if (reason != nullptr) {
        ++*reason;
        rescan_.push_back(j);
      } else {
        fold_.push_back(j);
      }
    }
    for (uint32_t j : rescan_) {
      RecomputeBest(j);
      // Moves into a changed type, or into the destination (it got
      // heavier), may have cheapened.
      const bool is_dest = !empty_dest && j == static_cast<size_t>(c.dest);
      if (!fold_.empty() && (changed_[j] || is_dest)) FoldRow(j);
    }
  }

  Snapshot MakeSnapshot(double total) const {
    Snapshot snap;
    // Rule bodies reference cluster indices; remap them to dense ids.
    std::vector<TypeId> dense(n_, kEmptyType);
    for (size_t k = 0; k < live_.size(); ++k) {
      dense[live_[k]] = static_cast<TypeId>(k);
    }
    for (uint32_t i : live_) {
      std::vector<TypedLink> links;
      links.reserve(body_[i].size());
      for (uint32_t id : body_[i]) {
        TypedLink l = links_[id];
        if (l.target >= 0) l.target = dense[static_cast<size_t>(l.target)];
        links.push_back(l);
      }
      snap.program.AddType(names_[i],
                           TypeSignature::FromLinks(std::move(links)));
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
  std::vector<TypedLink> links_;                // link id -> typed link
  std::vector<std::vector<uint32_t>> postings_;  // link id -> live types
  std::vector<std::vector<uint32_t>> body_;      // type -> sorted link ids
  // type -> ids of the links targeting it, sorted by (direction, label)
  std::vector<std::vector<uint32_t>> targeting_;
  std::vector<double> weight_;
  std::vector<uint32_t> live_;        // ascending ids of the live types
  std::vector<bool> changed_;         // per-merge scratch
  std::vector<size_t> changed_list_;  // ascending ids of changed_ entries
  std::vector<uint32_t> rescan_;      // per-merge scratch: rescanned sources
  std::vector<uint32_t> fold_;        // per-merge scratch: folding sources
  std::vector<uint32_t> moved_;       // RewriteBody scratch
  std::vector<uint32_t> remap_;       // RetargetIds output, by old link id
  // What a row's pass over the live types reads of each type: its body
  // size and its hot-link mask.
  struct Shape {
    uint64_t hot = 0;
    uint32_t size = 0;
  };
  std::vector<Shape> shape_;
  std::vector<uint64_t> hot_bit_;  // link id -> its mask bit, or 0
  std::vector<uint32_t> shared_;      // ComputeRow scratch: |s ∩ t|
  std::vector<uint32_t> row_;         // ComputeRow output: d(s, t)
  std::vector<TypeId> cluster_of_;
  std::vector<Candidate> best_;  // per live source: its best move
  double empty_weight_ = 0.0;
  const bool dest_priced_;  // the ψ kind prices the destination's weight
  const size_t big_l_;
  ClusteringCounters counters_;
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
  return clusterer.Run(exec, weights);
}

ClusteringResult ClusteringAtSnapshot(const ClusteringResult& ladder,
                                      Snapshot snapshot,
                                      const std::vector<uint32_t>& weights) {
  // Weights sum per Stage-1 home population, what `weights` measured.
  std::vector<uint64_t> final_weights(snapshot.num_types, 0);
  for (size_t i = 0; i < weights.size(); ++i) {
    const TypeId t = snapshot.stage1_to_snapshot[i];
    if (t != kEmptyType) final_weights[static_cast<size_t>(t)] += weights[i];
  }
  const auto merges =
      static_cast<ptrdiff_t>(weights.size() - snapshot.num_types);
  return {.steps = {ladder.steps.begin(), ladder.steps.begin() + merges},
          .final_program = std::move(snapshot.program),
          .final_map = std::move(snapshot.stage1_to_snapshot),
          .final_weights = std::move(final_weights),
          .total_distance = snapshot.total_distance,
          .snapshots = {},
          .counters = ladder.counters};
}

}  // namespace schemex::cluster
