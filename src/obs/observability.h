// One bundle a world wires into every module: a shared Tracer plus a shared
// metrics Registry. Modules expose `AttachObservability(Observability*)`;
// attaching re-homes the module's private registry handles onto the shared
// one so a single export covers the whole landscape.
//
// EnableScale() turns on the always-on layer for heavy traffic: the tracer
// streams spans through a SamplingPipeline (head sampling + tail retention,
// bounded retained store) that feeds a FlameProfile (exact path-keyed
// aggregates) and an SloEngine (error budgets + burn-rate alerts). Without
// it the tracer retains everything, as the original obs layer did.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/flame.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace taureau::obs {

/// Configuration for the always-on layer.
struct ScaleConfig {
  SamplerConfig sampler;
  std::vector<SloObjective> objectives;
};

struct Observability {
  explicit Observability(sim::Simulation* sim) : tracer(sim) {}

  Tracer tracer;
  Registry registry;

  /// Builds the sampling pipeline, flame profile and SLO engine, switches
  /// the tracer to stream mode (spans leave the tracer as they close, so
  /// memory is O(retained + in-flight)) and wires the pipeline in as its
  /// sink. Call before any spans are emitted (stream mode cannot be entered
  /// afterwards). Returns false if the store-mode switch was refused.
  bool EnableScale(const ScaleConfig& config);

  /// Non-null only after EnableScale().
  SamplingPipeline* pipeline() { return pipeline_.get(); }
  const SamplingPipeline* pipeline() const { return pipeline_.get(); }
  FlameProfile* flame() { return flame_.get(); }
  const FlameProfile* flame() const { return flame_.get(); }
  SloEngine* slo() { return slo_.get(); }
  const SloEngine* slo() const { return slo_.get(); }

  /// Finalizes any pending trace groups (end of run).
  void Flush() {
    if (pipeline_) pipeline_->Flush();
  }

  /// Trace + metrics + critical-path attribution (+ sampler/flame/slo
  /// sections when the scale layer is enabled) in one deterministic blob;
  /// the determinism checks byte-compare this across same-seed runs. The
  /// critical-path section aggregates per root-span name and is computed
  /// from the tracer without the scale layer and from the flame aggregates
  /// with it — same format, same bytes for the same workload.
  std::string ExportAll() const;

 private:
  std::unique_ptr<FlameProfile> flame_;
  std::unique_ptr<SloEngine> slo_;
  std::unique_ptr<SamplingPipeline> pipeline_;
};

}  // namespace taureau::obs
