#include "psim_day.h"

#include <cmath>
#include <memory>
#include <optional>

#include "alloc_counter.h"
#include "common/hash.h"
#include "common/rng.h"
#include "faas/billing.h"
#include "obs/metrics.h"
#include "obs/shard_merge.h"
#include "psim/lookahead.h"
#include "psim/psim.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace taureau;
using psim::ShardId;

constexpr uint32_t kCells = 8;
constexpr double kGlobalBaseRate = 300000.0;  ///< req/s across all cells.
constexpr double kDiurnalAmplitude = 0.5;
constexpr double kRemoteShare = 0.25;
/// Cell-to-cell RPC floor: one geo RTT of two broker dispatch hops
/// (2 x pubsub::PulsarConfig{}.dispatch_latency_us), as in E26b.
constexpr SimDuration kInterCellFloorUs = 2 * 300;
/// Latency budget of the per-cell attainment (a cross-cell call with the
/// slowest service time just fits).
constexpr SimDuration kBudgetUs = 1 * kMillisecond;
constexpr int64_t kMemoryMb = 128;

}  // namespace

PsimInput MakePsimDay(uint64_t seed, double scale) {
  PsimInput in;
  in.seed = seed;
  in.cells = kCells;
  in.requests = uint64_t(2000000 * scale);
  in.lookahead_us = psim::MineLookahead({kInterCellFloorUs});
  // One compressed day spans the whole plan.
  in.horizon_us =
      SimTime(double(in.requests) / kGlobalBaseRate * double(kSecond));
  const uint64_t per_cell = in.requests / kCells;
  in.plans.resize(kCells);
  for (uint32_t s = 0; s < kCells; ++s) {
    CellPlan& p = in.plans[s];
    p.at_us.reserve(per_cell);
    p.exec_us.reserve(per_cell);
    p.dst.reserve(per_cell);
    Rng rng(HashCombine(seed, s));
    Rng arrivals(HashCombine(seed + 7, s));
    SimTime t = 0;
    for (uint64_t i = 0; i < per_cell; ++i) {
      const double phase = 2.0 * 3.14159265358979323846 * double(t) /
                           double(in.horizon_us);
      const double rate_us = (kGlobalBaseRate / kCells) *
                             (1.0 + kDiurnalAmplitude * std::sin(phase)) / 1e6;
      t += std::max<SimDuration>(1,
                                 SimDuration(arrivals.NextExponential(rate_us)));
      p.at_us.push_back(t);
      p.exec_us.push_back(uint16_t(100 + rng.NextInt(0, 300)));
      p.dst.push_back(rng.NextBool(kRemoteShare)
                          ? uint8_t(rng.NextBounded(kCells))
                          : uint8_t(s));
    }
  }
  return in;
}

namespace {

struct Cell {
  obs::Registry registry;
  obs::CounterHandle requests;
  obs::CounterHandle remote_calls;
  obs::HistogramHandle e2e_us;
  size_t next = 0;
  // Written only by the thread running this cell, as the completing
  // (destination) cell; indexed by the cell that issued the request.
  std::vector<uint64_t> total_by_origin = std::vector<uint64_t>(kCells);
  std::vector<uint64_t> good_by_origin = std::vector<uint64_t>(kCells);
  uint64_t completed = 0;
  int64_t cost_nano = 0;
  std::vector<uint32_t> latencies;
};

class Day {
 public:
  Day(const PsimInput& in, unsigned threads, bool keep_latencies)
      : in_(in),
        world_(psim::PsimConfig{.shards = in.cells,
                                .threads = threads,
                                .lookahead_us = in.lookahead_us}),
        cells_(in.cells),
        keep_latencies_(keep_latencies),
        billing_(faas::BillingRates{.quantum_us = 1 * kMillisecond}) {
    for (uint32_t s = 0; s < in.cells; ++s) {
      Cell& c = cells_[s];
      c.requests = c.registry.ResolveCounter("day.requests");
      c.remote_calls = c.registry.ResolveCounter("day.remote_calls");
      c.e2e_us = c.registry.ResolveHistogram("day.e2e_us");
      if (keep_latencies) c.latencies.reserve(in.plans[s].at_us.size() * 2);
      if (!in.plans[s].at_us.empty()) ScheduleNext(ShardId(s));
    }
  }

  psim::ParallelSimulation& world() { return world_; }
  std::vector<Cell>& cells() { return cells_; }

 private:
  void ScheduleNext(ShardId s) {
    const CellPlan& p = in_.plans[s];
    const size_t i = cells_[s].next;
    world_.shard(s).ScheduleAt(p.at_us[i], [this, s] { Arrive(s); });
  }

  void Arrive(ShardId s) {
    Cell& c = cells_[s];
    const CellPlan& p = in_.plans[s];
    const size_t i = c.next++;
    c.requests.Inc();
    const SimTime t0 = world_.shard(s).Now();
    const SimDuration exec = p.exec_us[i];
    const ShardId dst = p.dst[i];
    if (dst != s) {
      // Cross-cell call: completes on the destination cell after the
      // inter-cell RTT plus its service time.
      c.remote_calls.Inc();
      world_.Post(s, dst, in_.lookahead_us + exec,
                  [this, dst, s, t0, exec] { Complete(dst, s, t0, exec); });
    } else {
      // Local: dispatch hop, then completion.
      world_.shard(s).Schedule(exec / 2, [this, s, t0, exec] {
        world_.shard(s).Schedule(exec - exec / 2, [this, s, t0, exec] {
          Complete(s, s, t0, exec);
        });
      });
    }
    if (c.next < p.at_us.size()) ScheduleNext(s);
  }

  void Complete(ShardId at, ShardId origin, SimTime t0, SimDuration exec) {
    Cell& c = cells_[at];
    const SimDuration e2e = world_.shard(at).Now() - t0;
    c.e2e_us.Observe(double(e2e));
    ++c.completed;
    ++c.total_by_origin[origin];
    if (e2e <= kBudgetUs) ++c.good_by_origin[origin];
    c.cost_nano += billing_.Price(exec, kMemoryMb).nano_dollars();
    if (keep_latencies_) c.latencies.push_back(uint32_t(e2e));
  }

  const PsimInput& in_;
  psim::ParallelSimulation world_;
  std::vector<Cell> cells_;
  const bool keep_latencies_;
  const faas::BillingLedger billing_;
};

}  // namespace

PsimPass RunPsimDay(const PsimInput& in, unsigned threads, bool keep_latencies,
                    SpanLog* log, HostSpeed* host) {
  PsimPass out;
  out.threads = threads;
  std::optional<Day> day;
  SliceClock setup(host);
  setup.Slice([&] { day.emplace(in, threads, keep_latencies); });
  out.setup_s = setup.wall_s();
  out.setup_nominal_s = setup.nominal_s();

  psim::ParallelSimulation& world = day->world();
  SliceClock clock(host);
  const uint64_t allocs0 = AllocCount();
  {
    ScopedSpan pass(log, threads == 1 ? "psim.pass_1t" : "psim.pass_nt");
    for (int d = 0; d < 10; ++d) {
      out.decile_s[d] = clock.Slice([&] {
        {
          ScopedSpan span(log, "psim.RunUntil");
          world.RunUntil(in.horizon_us * (d + 1) / 10);
        }
        if (d == 9) {
          ScopedSpan span(log, "psim.Run");
          world.Run();
        }
      });
    }
  }
  out.run_s = clock.wall_s();
  out.run_nominal_s = clock.nominal_s();
  out.allocs = AllocCount() - allocs0 - clock.probe_allocs();

  const psim::ParallelSimulation::Stats st = world.stats();
  out.events = world.events_fired();
  out.epochs = st.epochs;
  out.cross_posts = st.cross_posts;
  out.clamped_posts = st.clamped_posts;
  std::vector<const obs::Registry*> regs;
  std::vector<uint64_t> total(in.cells), good(in.cells);
  int64_t cost_nano = 0;
  uint64_t digest = kFnvOffset;
  for (uint32_t s = 0; s < in.cells; ++s) {
    const Cell& c = day->cells()[s];
    regs.push_back(&c.registry);
    out.completed += c.completed;
    cost_nano += c.cost_nano;
    for (uint32_t o = 0; o < in.cells; ++o) {
      total[o] += c.total_by_origin[o];
      good[o] += c.good_by_origin[o];
    }
    digest = FnvMix(digest, uint64_t(world.shard(s).Now()));
    if (keep_latencies) {
      for (uint32_t v : c.latencies) {
        out.latency_ms.push_back(double(v) / kMillisecond);
      }
    }
  }
  out.merged = obs::MergeShardExports(regs);
  digest = FnvMix(digest, Fnv1a64(out.merged));
  digest = FnvMix(digest, out.events);
  digest = FnvMix(digest, out.cross_posts);
  digest = FnvMix(digest, out.clamped_posts);
  digest = FnvMix(digest, uint64_t(cost_nano));
  out.digest = digest;
  std::vector<double> attainment;
  for (uint32_t o = 0; o < in.cells; ++o) {
    if (total[o] > 0) attainment.push_back(double(good[o]) / double(total[o]));
  }
  out.slo_attainment_p5 = Quantile(attainment, 0.05);
  out.cost_usd = double(cost_nano) / 1e9;
  return out;
}

}  // namespace perfbench
