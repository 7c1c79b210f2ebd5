// SpanSink sampling pipeline: the always-on layer that makes tracing
// affordable under heavy traffic.
//
// Retention combines two rules, decided per trace when its span group
// completes (root closed, no spans in flight):
//
//  - head sampling: a deterministic hash of the trace id keeps a
//    configurable fraction of *healthy* traces — same seed, same traffic
//    => the same traces retained, byte for byte;
//  - tail retention: any trace carrying an error/fault outcome marker
//    (kOutcomeAttr, set by the owning module at root-span close) or whose
//    root ran past its latency budget (the module's SLO budget, else the
//    global slow threshold) is kept unconditionally — sampling never
//    hides an incident.
//
// Before the decision, every finalized group is folded into the
// FlameProfile and scored against the SloEngine, so per-category
// critical-path attribution, hot-path top-k and burn-rate alerting are
// exact regardless of the drop rate. The retained store is bounded:
// when it overflows, head-sampled healthy traces are evicted before
// important (error/fault/slow) ones. Memory is O(retained + in-flight),
// plus one byte per trace for the decision ledger.
//
// Closed spans arrive by move (SpanSink::OnSpanEnd) and pending-group map
// nodes are recycled with their span-vector capacity, so a dropped trace
// costs no allocation in steady state beyond its spans' own attributes.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time_types.h"
#include "obs/flame.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace taureau::obs {

struct SamplerConfig {
  /// Fraction of healthy traces kept by head sampling ([0,1]).
  double head_rate = 1.0;
  /// Decision-hash seed; decouples the retained set from workload seeds.
  uint64_t seed = 0;
  /// Global slow threshold for tail retention; a module's SLO latency
  /// budget takes precedence. Negative disables the global rule.
  SimDuration slow_threshold_us = -1;
  /// Bound on spans held in the retained store.
  size_t max_retained_spans = size_t(1) << 20;
};

/// Why a trace was (or wasn't) kept. Tail rules outrank head sampling;
/// error outranks fault outranks slow.
enum class RetainReason : uint8_t {
  kPending = 0,  ///< Not finalized yet / never seen.
  kDropped,
  kHead,
  kSlow,
  kFault,
  kError,
};
std::string_view RetainReasonName(RetainReason r);

class SamplingPipeline : public SpanSink {
 public:
  /// `flame` and `slo` may be nullptr to disable that consumer.
  SamplingPipeline(SamplerConfig config, FlameProfile* flame, SloEngine* slo);

  // SpanSink:
  void OnSpanStart(const Span& span) override;
  void OnSpanEnd(Span&& span) override;

  /// Finalizes every pending group from its closed spans (groups whose
  /// root never closed count as incomplete and skip SLO scoring). Call
  /// once at end of run; incremental finalization handles the rest.
  void Flush();

  /// Live-retunes the head-sampling rate (clamped to [0,1]); the E28 knob
  /// "obs.sampler.head_rate" pushes through here. Applies to traces
  /// finalized from now on. Flame/SLO aggregates are fed *before* the
  /// retention decision, so they stay exact at any rate — only the
  /// retained trace store changes.
  void set_head_rate(double rate);
  double head_rate() const { return config_.head_rate; }

  /// The deterministic head-sampling decision for a trace id.
  bool HeadKeeps(uint64_t trace_id) const;
  /// kPending when the trace has not finalized.
  RetainReason DecisionFor(uint64_t trace_id) const;

  struct Stats {
    uint64_t spans_seen = 0;
    uint64_t traces_finalized = 0;
    uint64_t traces_retained = 0;
    uint64_t traces_dropped = 0;
    uint64_t spans_retained = 0;   ///< Cumulative, before eviction.
    uint64_t important_seen = 0;   ///< Error/fault/slow traces finalized.
    uint64_t important_retained = 0;
    uint64_t late_groups = 0;      ///< Span groups after their trace decided.
    uint64_t incomplete_traces = 0;
    uint64_t evicted_traces = 0;
    uint64_t evicted_important = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Spans / approximate heap bytes currently in the retained store (the
  /// byte model is ApproxSpanBytes, summed).
  size_t retained_span_count() const { return retained_span_count_; }
  size_t retained_bytes() const { return retained_bytes_; }
  size_t pending_span_count() const;

  /// Retained traces in id order: "trace=<id> reason=<reason>" header then
  /// the canonical span lines. Same seed => byte-identical.
  std::string ExportText() const;
  /// Deterministic counters block for the "== sampler ==" export section.
  std::string ExportSummaryText() const;

 private:
  struct Pending {
    std::vector<Span> spans;  ///< Closed spans, in close order.
    size_t open = 0;
    uint64_t root_id = 0;
    bool root_ended = false;
    bool saw_error = false;
    bool saw_fault = false;
    bool late = false;  ///< Group arrived after the trace's decision.
    Interned root_module;
    Interned root_name;
    std::string root_tenant;  ///< kTenantAttr of the root span, if set.
    SimTime root_end_us = 0;
    SimDuration root_duration_us = 0;
  };
  struct RetainedTrace {
    RetainReason reason = RetainReason::kDropped;
    std::vector<Span> spans;
  };

  using PendingMap = std::unordered_map<uint64_t, Pending>;

  void NoteMarkers(const Span& span, Pending* group);
  /// Finalizes the extracted group `node` and recycles it.
  void FinalizeNode(PendingMap::node_type&& node, bool complete);
  void Finalize(uint64_t trace_id, Pending& group, bool complete);
  /// Moves the spans out of `*spans` (which keeps its capacity).
  void Retain(uint64_t trace_id, RetainReason reason,
              std::vector<Span>* spans);
  void EvictIfOver();
  /// Byte model of one retained span: kSpanModelBytes, plus its name and
  /// module lengths, plus key + value lengths + 32 per attribute. It
  /// drives eviction and the exported retained_bytes.
  static size_t ApproxSpanBytes(const Span& span);
  /// The size a Span had while its attributes were a std::map (104 B on
  /// LP64), fixed so retained_bytes stays comparable whatever Span's
  /// in-memory layout is.
  static constexpr size_t kSpanModelBytes = 104;

  SamplerConfig config_;
  FlameProfile* flame_;
  SloEngine* slo_;
  PendingMap pending_;
  /// Finalized pending_ nodes, reset and reused by OnSpanStart.
  std::vector<PendingMap::node_type> free_pending_;
  std::map<uint64_t, RetainedTrace> retained_;
  std::set<uint64_t> healthy_;  ///< Evict-first candidates (head-sampled).
  /// Decision per finalized trace id (ids are sequential from 1).
  std::vector<RetainReason> decisions_;
  size_t retained_span_count_ = 0;
  size_t retained_bytes_ = 0;
  Stats stats_;
};

}  // namespace taureau::obs
