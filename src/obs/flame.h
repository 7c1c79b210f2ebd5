// Flame-profile aggregator: folds complete trace groups into path-keyed
// self-time/count aggregates plus per-root-name critical-path breakdowns.
//
// This is the "exact" half of the sampled-observability split: the sampling
// pipeline feeds *every* finalized trace through FoldTrace before deciding
// retention, so hot-path top-k and per-category attribution are identical
// whether 100% or 1% of raw spans are kept.
//
// Path keys are semicolon-joined span names from the group root down
// (folded-flame-graph convention): "invoke:serve;exec". Self time uses the
// critical-path partition — each instant of the root window is charged to
// the deepest covering span — so per-trace self times sum exactly to the
// root span's wall time (the invariant the obs_scale tests pin).
//
// Cost: paths are interned as a call-path tree keyed by (parent node, span
// name); each node renders its path string once, when first seen. Memory
// is O(distinct paths), independent of traffic, and a fold whose paths all
// exist does no allocation — parents resolve by binary search over the
// id-sorted group, stats accumulate into the nodes and the per-fold
// working vectors are members reused across folds.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time_types.h"
#include "obs/critical_path.h"
#include "obs/trace.h"

namespace taureau::obs {

/// Aggregate for one call path.
struct PathStat {
  uint64_t count = 0;        ///< Spans folded under this path.
  SimDuration total_us = 0;  ///< Sum of full (unclipped) span durations.
  SimDuration self_us = 0;   ///< Sum of root-window self time.
};

/// Aggregate for one root-span name: how many requests and where their
/// end-to-end latency went (exact, matches AnalyzeCriticalPath per trace).
struct RootAggregate {
  uint64_t count = 0;
  Breakdown breakdown;
};

class FlameProfile {
 public:
  FlameProfile() = default;
  // Child-index keys view strings owned by nodes_; a copy would alias them.
  FlameProfile(const FlameProfile&) = delete;
  FlameProfile& operator=(const FlameProfile&) = delete;

  /// Folds one complete trace group. `spans` must be sorted by id with
  /// unique ids (creation order — parents precede children); spans whose
  /// parent is absent from the group act as subtree roots (late/async
  /// groups, chaos markers). Unfinished spans are skipped.
  void FoldTrace(const std::vector<Span>& spans);

  /// Path-keyed aggregates, rendered from the call-path tree on each call.
  /// Distinct tree nodes whose path strings coincide (a span name that
  /// itself contains ';') share one entry.
  std::map<std::string, PathStat> paths() const;
  const std::map<std::string, RootAggregate>& by_root() const {
    return by_root_;
  }
  /// Per-tenant request/latency breakdown, keyed by the kTenantAttr of
  /// each subtree root (roots without the attribute are not counted here).
  /// Exact under any sampling rate, like by_root().
  const std::map<std::string, RootAggregate>& by_tenant() const {
    return by_tenant_;
  }
  uint64_t folded_spans() const { return folded_spans_; }
  uint64_t folded_traces() const { return folded_traces_; }

  /// Top-k paths by self time (ties toward the lexicographically smaller
  /// path, so the ranking is deterministic).
  std::vector<std::pair<std::string, PathStat>> TopKBySelf(size_t k) const;

  /// Deterministic one-line-per-path rendering, sorted by path.
  std::string ExportText() const;

  /// Deterministic per-tenant breakdown lines (FormatRootAggregates over
  /// by_tenant()); empty when no root carried a tenant attribute.
  std::string ExportTenantsText() const;

  void Clear();

 private:
  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// One call path: the stats of every ended span folded under it.
  struct PathNode {
    std::string path;  ///< Rendered once, at creation.
    PathStat stat;
  };
  /// (parent node, span name); `name` views the tail of a node's path.
  struct ChildKey {
    uint32_t parent;
    std::string_view name;
    bool operator==(const ChildKey&) const = default;
  };
  struct ChildKeyHash {
    size_t operator()(const ChildKey& k) const;
  };

  /// The node for `name` under `parent` (kNoNode: a top-level path),
  /// created on first use.
  uint32_t Child(uint32_t parent, const std::string& name);

  std::deque<PathNode> nodes_;  ///< Stable addresses: keys view into them.
  std::unordered_map<ChildKey, uint32_t, ChildKeyHash> children_;
  // Per-fold working storage, kept to avoid reallocating on every fold.
  std::vector<uint32_t> node_of_;
  std::vector<size_t> group_roots_;
  std::vector<SimDuration> self_;
  AttributionScratch scratch_;

  std::map<std::string, RootAggregate> by_root_;
  std::map<std::string, RootAggregate> by_tenant_;
  uint64_t folded_spans_ = 0;
  uint64_t folded_traces_ = 0;
};

/// Deterministic "name count=N total=... queue=... ..." lines for a
/// per-root aggregate map; shared by FlameProfile and Observability's
/// critical-path export section so retain-mode and stream-mode exports are
/// byte-comparable.
std::string FormatRootAggregates(
    const std::map<std::string, RootAggregate>& by_root);

}  // namespace taureau::obs
