// Critical-path analysis: walks a finished trace tree and attributes the
// root span's end-to-end latency to queueing vs cold-start vs execution vs
// shuffle vs retry (paper §6: double billing, cold starts and failure
// masking must be visible per request, not just in aggregate).
//
// Attribution is exact by construction: every instant of the root interval
// is charged to exactly one category — the deepest descendant span covering
// it that carries a category attribute, or kOther when none does — so the
// per-category durations always sum to the end-to-end latency.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "obs/trace.h"

namespace taureau::obs {

/// Where a slice of end-to-end latency went.
enum class Category {
  kQueue = 0,   ///< Dispatch + throttle queueing ("cat=queue").
  kColdStart,   ///< Container + runtime init ("cat=cold").
  kExec,        ///< Function execution ("cat=exec").
  kShuffle,     ///< Ephemeral-state / shuffle I/O ("cat=shuffle").
  kRetry,       ///< Retry backoff + re-dispatch after failures ("cat=retry").
  kGuard,       ///< Overload-protection decisions: admission shed, deadline
                ///< cancellation, hedge wait ("cat=guard").
  kReuse,       ///< Served by the computation-reuse layer: cache hit,
                ///< singleflight coalescing, approximation ("cat=reuse").
  kOther,       ///< Root time covered by no categorized span.
};
inline constexpr size_t kCategoryCount = 8;

std::string_view CategoryName(Category c);
std::optional<Category> ParseCategory(std::string_view name);

/// Per-request latency attribution. Invariant (asserted by the tests):
/// Sum() == total_us exactly.
struct Breakdown {
  SimDuration total_us = 0;
  std::array<SimDuration, kCategoryCount> by_category{};

  SimDuration Get(Category c) const {
    return by_category[static_cast<size_t>(c)];
  }
  SimDuration Sum() const;
  double Fraction(Category c) const {
    return total_us > 0 ? double(Get(c)) / double(total_us) : 0.0;
  }

  /// Accumulates another request's breakdown (aggregate reporting).
  void Accumulate(const Breakdown& other);

  std::string ToString() const;
};

/// Attributes the latency of the trace tree rooted at `root_span_id`.
/// Fails NotFound for unknown ids, FailedPrecondition for non-root or
/// unfinished roots.
Result<Breakdown> AnalyzeCriticalPath(const Tracer& tracer,
                                      uint64_t root_span_id);

/// Full attribution of one span subtree: the category breakdown plus a
/// per-span *self time* — the portion of the root window each span is the
/// deepest cover of. Both partitions are exact: the breakdown categories
/// and the self times each sum to the root window independently.
struct TraceAttribution {
  Breakdown breakdown;
  /// Parallel to the input span vector; 0 for spans outside the subtree.
  std::vector<SimDuration> self_us;
};

/// Reusable working storage for AttributeTraceInto. A caller that keeps one
/// across calls (the flame aggregator does) attributes traces without
/// allocating once the vectors have grown to its largest trace.
struct AttributionScratch {
  /// One finished descendant, clipped to the root window.
  struct Interval {
    SimTime start;
    SimTime end;
    int depth;
    uint64_t id;
    size_t index;  ///< Position in the span slice (for self-time charging).
    bool has_cat;
    Category cat;
  };
  std::vector<int> depth;  ///< Per span index; -1 outside the subtree.
  std::vector<Interval> intervals;
  std::vector<SimTime> bounds;
};

/// Position of the span with id `id` in the id-sorted `spans`, or
/// spans.size() when absent: a direct index when the slice's ids are
/// gap-free around `id`, else a binary search.
size_t SpanIndex(const std::vector<Span>& spans, uint64_t id);

/// The attribution algorithm: attributes the subtree rooted at
/// `spans[root_index]` within `spans` (any id-sorted slice of one or more
/// traces with unique ids; parents are found by binary search on id). The
/// root may itself have a parent outside `spans` (late/async span groups)
/// and must be ended. Overwrites `*breakdown`; *adds* each span's self time
/// into `(*self_us)[i]`, which must hold spans.size() entries, so callers
/// can accumulate several disjoint subtrees into one vector.
void AttributeTraceInto(const std::vector<Span>& spans, size_t root_index,
                        AttributionScratch* scratch,
                        std::vector<SimDuration>* self_us,
                        Breakdown* breakdown);

/// Storage-agnostic entry point shared by AnalyzeCriticalPath and
/// Observability's retain-mode export: AttributeTraceInto for the span
/// with id `root_span_id`, with fresh scratch and a fresh self-time vector.
/// NotFound for an absent root, FailedPrecondition for an unfinished one.
Result<TraceAttribution> AttributeTrace(const std::vector<Span>& spans,
                                        uint64_t root_span_id);

}  // namespace taureau::obs
