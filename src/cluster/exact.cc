#include "cluster/exact.h"

#include <algorithm>
#include <limits>

#include "cluster/distance.h"
#include "typing/defect.h"
#include "typing/recast.h"
#include "util/string_util.h"

namespace schemex::cluster {

namespace {

using typing::TypeId;
using typing::TypeSignature;
using typing::TypingProgram;

/// Builds the candidate program for one partition: group definitions are
/// weighted medoids, targets remapped to group ids. `d` is the
/// precomputed all-pairs simple-distance matrix (bit kernel) — the
/// enumeration evaluates every partition against the same Stage-1
/// signatures, so the matrix is computed once per call, not per
/// partition.
TypingProgram BuildProgram(const TypingProgram& stage1,
                           const std::vector<uint32_t>& weights,
                           const std::vector<TypeId>& group_of,
                           size_t num_groups,
                           const std::vector<std::vector<size_t>>& d) {
  const size_t n = stage1.NumTypes();
  std::vector<std::vector<size_t>> members(num_groups);
  for (size_t i = 0; i < n; ++i) {
    members[static_cast<size_t>(group_of[i])].push_back(i);
  }
  TypingProgram program;
  for (size_t gidx = 0; gidx < num_groups; ++gidx) {
    uint64_t best_cost = std::numeric_limits<uint64_t>::max();
    size_t medoid = members[gidx].front();
    for (size_t m : members[gidx]) {
      uint64_t cost = 0;
      for (size_t j : members[gidx]) {
        cost += static_cast<uint64_t>(weights[j]) * d[j][m];
      }
      if (cost < best_cost) {
        best_cost = cost;
        medoid = m;
      }
    }
    TypeSignature sig = stage1.type(static_cast<TypeId>(medoid)).signature;
    sig.RemapTargets(group_of);
    program.AddType(stage1.type(static_cast<TypeId>(medoid)).name,
                    std::move(sig));
  }
  return program;
}

}  // namespace

util::StatusOr<ExactResult> ExactOptimalTyping(
    graph::GraphView g, const typing::PerfectTypingResult& stage1,
    const ExactOptions& options) {
  const size_t n = stage1.program.NumTypes();
  if (n == 0) return util::Status::InvalidArgument("no types to cluster");
  if (n > options.max_types) {
    return util::Status::FailedPrecondition(util::StringPrintf(
        "%zu stage-1 types exceeds the exhaustive-search guard (%zu)", n,
        options.max_types));
  }
  if (options.k == 0) return util::Status::InvalidArgument("k must be >= 1");

  ExactResult best;
  best.defect = std::numeric_limits<size_t>::max();

  // All-pairs signature distances on the bit kernel, once up front.
  std::vector<std::vector<size_t>> d(n, std::vector<size_t>(n, 0));
  {
    typing::BitSignatureIndex index(stage1.program);
    std::vector<typing::BitSignature> enc(n);
    for (size_t i = 0; i < n; ++i) {
      enc[i] = index.EncodeFrozen(
          stage1.program.type(static_cast<TypeId>(i)).signature);
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        d[i][j] = d[j][i] =
            typing::BitSignatureIndex::Distance(enc[i], enc[j]);
      }
    }
  }

  // Enumerate restricted growth strings: rgs[0] = 0, rgs[i] <= max+1,
  // group count <= k.
  std::vector<TypeId> rgs(n, 0);
  util::Status eval_error;
  auto evaluate = [&](size_t num_groups) {
    TypingProgram program =
        BuildProgram(stage1.program, stage1.weight, rgs, num_groups, d);
    std::vector<std::vector<TypeId>> homes(g.NumObjects());
    for (size_t o = 0; o < stage1.home.size(); ++o) {
      if (stage1.home[o] != typing::kInvalidType) {
        homes[o] = {rgs[static_cast<size_t>(stage1.home[o])]};
      }
    }
    auto recast = typing::Recast(program, g, homes);
    if (!recast.ok()) {
      if (eval_error.ok()) eval_error = recast.status();
      return;
    }
    typing::DefectReport report =
        typing::ComputeDefect(program, g, recast->assignment);
    ++best.partitions_tried;
    if (report.defect() < best.defect) {
      best.defect = report.defect();
      best.program = std::move(program);
      best.map = rgs;
    }
  };

  // Depth-first enumeration.
  std::vector<TypeId> max_prefix(n, 0);  // max group id used in rgs[0..i]
  size_t i = 1;
  if (n == 1) {
    evaluate(1);
  } else {
    rgs[0] = 0;
    max_prefix[0] = 0;
    std::vector<TypeId> choice(n, -1);
    while (true) {
      if (i == n) {
        evaluate(static_cast<size_t>(max_prefix[n - 1]) + 1);
        --i;
        continue;
      }
      TypeId limit = std::min<TypeId>(
          max_prefix[i - 1] + 1, static_cast<TypeId>(options.k) - 1);
      if (choice[i] < limit) {
        ++choice[i];
        rgs[i] = choice[i];
        max_prefix[i] = std::max(max_prefix[i - 1], rgs[i]);
        ++i;
        if (i < n) choice[i] = -1;
      } else {
        if (i == 1) break;
        choice[i] = -1;
        --i;
      }
    }
  }
  if (!eval_error.ok()) return eval_error;
  return best;
}

}  // namespace schemex::cluster
