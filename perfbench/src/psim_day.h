// psim_day: the E26b-shaped diurnal day — 8 cells in one
// psim::ParallelSimulation, kernel callbacks only, 25% cross-cell calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time_types.h"
#include "host_speed.h"
#include "span_log.h"

namespace perfbench {

using taureau::SimDuration;
using taureau::SimTime;

/// Generated arrival plan of one cell.
struct CellPlan {
  std::vector<SimTime> at_us;
  std::vector<uint16_t> exec_us;  ///< Dispatch + service time.
  std::vector<uint8_t> dst;       ///< Destination cell; == own id: local.
};

struct PsimInput {
  uint64_t seed = 0;
  uint32_t cells = 0;
  SimTime horizon_us = 0;
  SimDuration lookahead_us = 0;
  uint64_t requests = 0;
  std::vector<CellPlan> plans;
};

PsimInput MakePsimDay(uint64_t seed, double scale);

struct PsimPass {
  unsigned threads = 0;
  double setup_s = 0;
  double setup_nominal_s = 0;  ///< setup_s rescaled to the nominal host.
  double run_s = 0;
  /// run_s rescaled slice by slice to the nominal host (= run_s when run
  /// without a HostSpeed).
  double run_nominal_s = 0;
  uint64_t allocs = 0;
  double decile_s[10] = {};
  uint64_t events = 0;
  uint64_t epochs = 0;
  uint64_t cross_posts = 0;
  uint64_t clamped_posts = 0;
  uint64_t completed = 0;
  std::string merged;  ///< obs::MergeShardExports over the cell registries.
  uint64_t digest = 0;
  // Simulated outcomes (identical at any thread count).
  std::vector<double> latency_ms;  ///< Filled only when asked for.
  double slo_attainment_p5 = 0;
  double cost_usd = 0;
};

/// Builds the sharded world, runs it with `threads` workers, and records
/// the pass. `keep_latencies` fills latency_ms (costly; once per run).
/// With `host`, the set-up is also timed against the host's speed.
PsimPass RunPsimDay(const PsimInput& in, unsigned threads, bool keep_latencies,
                    SpanLog* log, HostSpeed* host = nullptr);

}  // namespace perfbench
