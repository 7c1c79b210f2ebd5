// The repository benchmark. One workload per invocation:
//
//   perfbench --workload fleet_day|hot_keys|psim_day --seed N --seconds S
//             --trace 0|1 [--out DIR] [--git-describe STR]
//   perfbench --selfcheck
//   perfbench --repro-keepalive-drain
//
// The workload's inputs are generated from the seed and replayed for S
// seconds of host time; every repetition re-checks the outputs. With
// --trace 0 the last stdout line is the end-to-end metrics JSON, with
// --trace 1 it is the per-layer breakdown (spans are recorded around the
// benchmark's calls into each layer and written to DIR). A failed output
// check prints the measured value next to the expected one on stderr and
// exits 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fleet.h"
#include "psim_day.h"
#include "span_log.h"
#include "stats.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;  ///< Request-count multiplier; the self-check shrinks it.
  std::string out_dir;
  std::string git_describe = "unknown";
  bool selfcheck = false;
  bool repro = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation reports: metrics for the last line, free-form
/// lines for humans, provenance and per-repetition samples for the
/// result file, and any failed output checks.
struct Report {
  std::vector<Metric> metrics;
  /// Printed with units and kept in the result file, but not part of the
  /// gated result line (see perfbench/README.md for why).
  std::vector<Metric> extras;
  std::vector<std::pair<std::string, std::string>> info;
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> failures;
  uint64_t attempted = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extras.push_back({name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

double ElapsedS(uint64_t since_ns) {
  return double(SpanLog::NowNs() - since_ns) / 1e9;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return unsigned(std::max(1, CPU_COUNT(&set)));
}

/// Worker threads of the gated psim_day N-thread pass: min(2, nproc). Four
/// spinning workers on four shared vCPUs stall at every barrier whenever
/// the host takes one of them away, which moved whole runs by 30%; two
/// leave the guest room to reschedule. The traced run also times
/// min(4, nproc) threads.
unsigned ParallelThreads() { return std::min(2u, Nproc()); }
unsigned MaxThreads() { return std::min(4u, Nproc()); }

/// How the timed figures of the untraced runs are measured.
constexpr const char* kNominalNote =
    "sim_req_per_s, psim_speedup and setup_s use nominal-host time: each "
    "timed slice's wall time times the host speed sampled around it "
    "(wall_req_per_s is the raw wall-clock figure)";

// ------------------------------------------------------------ fleet

FleetInput MakeFleetInput(const std::string& workload, uint64_t seed,
                          double scale) {
  return workload == "hot_keys" ? MakeHotKeys(seed, scale)
                                : MakeFleetDay(seed, scale);
}

void AddFleetInputs(const FleetInput& in, Report* r) {
  r->Info("input.requests", std::to_string(in.requests.size()));
  r->Info("input.sim_span_s", Num(double(in.horizon_us) / 1e6));
  r->Info("input.tenants", std::to_string(in.tenants.size()));
  r->Info("input.functions", std::to_string(in.functions.size()));
  r->Info("input.machines", std::to_string(in.machines));
  r->Info("input.distinct_keys", std::to_string(in.distinct_keys));
}

void CheckFleetRun(const FleetRun& run, uint64_t first_digest, Report* r) {
  for (const std::string& f : run.check_failures) r->Check(false, f);
  r->Check(run.digest == first_digest,
           "sim_digest " + Hex(run.digest) +
               " differs from the first repetition's " + Hex(first_digest));
}

/// Outcome metrics shared by every fleet report.
void AddFleetOutcomes(const FleetRun& run, Report* r) {
  r->Add("ok_frac", double(run.ok) / double(run.attempted), "fraction");
  r->Add("slo_attainment_p5", run.slo_attainment_p5, "fraction");
  r->Add("cost_usd_per_1k_ok",
         run.ok ? run.cost_usd / double(run.ok) * 1000.0 : 0, "usd");
  r->Extra("failed_frac", double(run.failed) / double(run.attempted),
           "fraction");
  r->Extra("sim_p50_ms", Quantile(run.ok_latency_ms, 0.5), "ms");
  r->Extra("sim_p99_ms", Quantile(run.ok_latency_ms, 0.99), "ms");
  r->Extra("sim_mean_ms", Mean(run.ok_latency_ms), "ms");
  r->Extra("sim_latency_samples", double(run.ok_latency_ms.size()), "count");
  r->Info("sim_digest", Hex(run.digest));
}

void RunFleetE2E(const Options& o, Report* r) {
  const uint64_t start = SpanLog::NowNs();
  SpanLog off;
  HostSpeed host;
  std::vector<double> rps, wall_rps, allocs, setup;
  FleetRun first;
  for (int rep = 0; rep < 3 || ElapsedS(start) < o.seconds; ++rep) {
    FleetInput in;
    SliceClock gen(&host);
    gen.Slice([&] { in = MakeFleetInput(o.workload, o.seed, o.scale); });
    FleetRun run = RunFleet(in, kAllLayers, &off, &host);
    setup.push_back(gen.nominal_s() + run.setup_nominal_s);
    rps.push_back(double(run.attempted) / run.run_nominal_s);
    wall_rps.push_back(double(run.attempted) / run.run_s);
    allocs.push_back(double(run.allocs) / double(run.attempted));
    r->attempted += run.attempted;
    if (rep == 0) {
      AddFleetInputs(in, r);
      r->Info("reuse.repeat_share", Num(in.repeat_share));
      r->Info("obs.slo_window_events", Num(run.slo_window_events));
      first = std::move(run);
      CheckFleetRun(first, first.digest, r);
    } else {
      CheckFleetRun(run, first.digest, r);
    }
  }
  r->Add("sim_req_per_s", Median(rps), "1/s");
  r->Add("allocs_per_req", Median(allocs), "count");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("setup_s", Median(setup), "s");
  r->Add("psim_speedup", 1.0, "x");
  r->Extra("wall_req_per_s", Median(wall_rps), "1/s");
  r->Extra("host_speed", Median(host.samples()), "x");
  AddFleetOutcomes(first, r);
  r->Info("psim_speedup_note", "single sim::Simulation: one thread, 1x");
  r->Info("sim_req_per_s_note", kNominalNote);
  r->samples["sim_req_per_s"] = rps;
  r->samples["wall_req_per_s"] = wall_rps;
  r->samples["host_speed"] = host.samples();
  r->samples["allocs_per_req"] = allocs;
  r->samples["setup_s"] = setup;
}

void AddZeroPsimLayer(Report* r) {
  for (const char* m : {"psim.epochs", "psim.events_per_epoch",
                        "psim.cross_posts", "psim.clamped_posts"}) {
    r->Add(m, 0, "count");
  }
  r->Add("psim.run_s_1t", 0, "s");
  r->Add("psim.run_s_nt", 0, "s");
  r->Add("psim.run_s_4t", 0, "s");
  r->Add("psim.speedup_4t", 0, "x");
}

void AddDeciles(const double* decile_s, const uint64_t* decile_requests,
                Report* r) {
  for (int d = 0; d < 10; ++d) {
    const double ns = decile_requests[d]
                          ? decile_s[d] * 1e9 / double(decile_requests[d])
                          : 0;
    r->Add("sim.ns_per_req_d" + std::to_string(d), ns, "ns");
  }
}

void AddLadder(const Options& o, const FleetInput& in, Report* r);

void RunFleetTraced(const Options& o, Report* r, SpanLog* log) {
  const FleetInput in = MakeFleetInput(o.workload, o.seed, o.scale);
  AddFleetInputs(in, r);
  SpanLog off;
  const FleetRun base = RunFleet(in, kAllLayers, &off);
  log->Enable(in.requests.size() * 4 + 1024);
  const FleetRun traced = RunFleet(in, kAllLayers, log);
  log->Disable();
  CheckFleetRun(base, base.digest, r);
  CheckFleetRun(traced, base.digest, r);
  r->attempted = base.attempted + traced.attempted;

  const double n = double(base.attempted);
  r->Add("sim.events", double(base.events), "count");
  r->Add("sim.events_per_req", double(base.events) / n, "count");
  r->Add("sim.ns_per_event", base.run_s * 1e9 / double(base.events), "ns");
  AddDeciles(base.decile_s, base.decile_requests, r);
  AddZeroPsimLayer(r);

  const std::vector<double> invoke_ns = log->Durations("faas.Invoke");
  r->Add("faas.invoke_ns_p50", Quantile(invoke_ns, 0.5), "ns");
  r->Add("faas.invoke_ns_p99", Quantile(invoke_ns, 0.99), "ns");
  r->Add("faas.invoke_count", double(invoke_ns.size()), "count");
  r->Add("faas.cold_starts", double(base.cold_starts), "count");
  const double starts = double(base.cold_starts + base.warm_starts);
  r->Add("faas.warm_frac", starts ? double(base.warm_starts) / starts : 0,
         "fraction");
  r->Add("faas.retries", double(base.retries), "count");
  r->Add("faas.timeouts", double(base.timeouts), "count");
  r->Add("faas.throttled", double(base.throttled), "count");
  r->Add("faas.peak_containers", double(base.peak_containers), "count");

  r->Add("obs.retained_frac", base.obs_retained_frac, "fraction");
  r->Add("obs.slo_window_events", base.slo_window_events, "count");
  r->Add("obs.flush_ns", double(log->TotalNs("obs.Flush")), "ns");
  r->Add("obs.export_ns", double(log->TotalNs("obs.ExportAll")), "ns");
  r->Add("obs.export_bytes", double(base.export_bytes), "bytes");

  r->Add("guard.shed", double(base.shed), "count");
  r->Add("guard.retries_granted", double(base.retries_granted), "count");
  r->Add("guard.retries_denied", double(base.retries_denied), "count");
  r->Add("guard.hedges_launched", double(base.hedges_launched), "count");
  r->Add("guard.hedge_win_frac",
         base.hedges_launched
             ? double(base.hedge_wins) / double(base.hedges_launched)
             : 0,
         "fraction");

  const double lookups = double(base.reuse_hits + base.reuse_misses);
  const double offers = double(base.reuse_admitted + base.reuse_rejected);
  r->Add("reuse.lookups", lookups, "count");
  r->Add("reuse.hit_frac", lookups ? double(base.reuse_hits) / lookups : 0,
         "fraction");
  r->Add("reuse.coalesced", double(base.reuse_coalesced), "count");
  r->Add("reuse.offers", offers, "count");
  r->Add("reuse.admit_frac", offers ? double(base.reuse_admitted) / offers : 0,
         "fraction");
  r->Add("reuse.evictions", double(base.reuse_evictions), "count");
  r->Add("reuse.repeat_share", in.repeat_share, "fraction");

  r->Add("ctrl.pushes", double(base.ctrl_pushes), "count");
  r->Add("ctrl.applied", double(base.ctrl_applied), "count");
  r->Add("ctrl.push_ns", double(log->TotalNs("ctrl.Push")), "ns");
  r->Add("chaos.faults_injected", double(base.chaos_injected), "count");
  r->Add("chaos.recoveries", double(base.chaos_recovered), "count");

  AddLadder(o, in, r);

  const double untraced_rps = n / base.run_s;
  const double traced_rps = double(traced.attempted) / traced.run_s;
  r->Add("trace.sim_req_per_s", traced_rps, "1/s");
  r->Add("trace.untraced_sim_req_per_s", untraced_rps, "1/s");
  r->Add("trace.overhead_frac", 1.0 - traced_rps / untraced_rps, "fraction");
}

/// The layer ladder (fleet_day only): the same arrivals replayed with the
/// layers added one at a time. Other workloads report zeros.
void AddLadder(const Options& o, const FleetInput& in, Report* r) {
  struct Rung {
    const char* name;
    unsigned layers;
  };
  const Rung ladder[] = {{"bare", 0},
                         {"obs", kObs},
                         {"guard", kObs | kGuard},
                         {"reuse", kObs | kGuard | kReuse},
                         {"ctrl", kObs | kGuard | kReuse | kCtrl},
                         {"chaos", kAllLayers}};
  SpanLog off;
  for (const Rung& rung : ladder) {
    if (o.workload != "fleet_day") {
      r->Add(std::string("ladder.") + rung.name + ".ns_per_req", 0, "ns");
      r->Add(std::string("ladder.") + rung.name + ".allocs_per_req", 0,
             "count");
      continue;
    }
    const FleetRun run = RunFleet(in, rung.layers, &off);
    for (const std::string& f : run.check_failures) {
      r->Check(false, std::string("ladder ") + rung.name + ": " + f);
    }
    r->attempted += run.attempted;
    r->Add(std::string("ladder.") + rung.name + ".ns_per_req",
           run.run_s * 1e9 / double(run.attempted), "ns");
    r->Add(std::string("ladder.") + rung.name + ".allocs_per_req",
           double(run.allocs) / double(run.attempted), "count");
  }
}

// ------------------------------------------------------------- psim

void AddPsimInputs(const PsimInput& in, Report* r) {
  r->Info("input.requests", std::to_string(in.requests));
  r->Info("input.sim_span_s", Num(double(in.horizon_us) / 1e6));
  r->Info("input.cells", std::to_string(in.cells));
  r->Info("input.lookahead_us", std::to_string(in.lookahead_us));
  r->Info("input.threads_nt", std::to_string(ParallelThreads()));
}

/// One (1 thread, N threads) pair on freshly generated inputs. The
/// outputs of both passes must match byte for byte.
/// With `host`, generation and set-up are also timed against the host's
/// speed.
struct PsimPair {
  PsimPass one, many;
  double gen_nominal_s = 0;  ///< Input generation, nominal-host seconds.
};

PsimPair RunPsimPair(const Options& o, bool keep_latencies, SpanLog* log,
                     Report* r, PsimInput* input_out,
                     HostSpeed* host = nullptr) {
  PsimPair p;
  PsimInput in;
  SliceClock gen(host);
  gen.Slice([&] { in = MakePsimDay(o.seed, o.scale); });
  p.gen_nominal_s = gen.nominal_s();
  p.one = RunPsimDay(in, 1, false, log, host);
  p.many = RunPsimDay(in, ParallelThreads(), keep_latencies, log, host);
  for (const PsimPass* pass : {&p.one, &p.many}) {
    r->Check(pass->completed == in.requests,
             std::to_string(pass->threads) + "-thread pass completed " +
                 std::to_string(pass->completed) + " requests, expected " +
                 std::to_string(in.requests));
  }
  r->Check(p.one.merged == p.many.merged,
           "merged exports differ between 1 and " +
               std::to_string(p.many.threads) + " threads: digest " +
               Hex(p.one.digest) + " vs " + Hex(p.many.digest));
  r->Check(p.one.events == p.many.events,
           "events " + std::to_string(p.many.events) + " at " +
               std::to_string(p.many.threads) + " threads, expected " +
               std::to_string(p.one.events));
  r->attempted += 2 * in.requests;
  if (input_out != nullptr) *input_out = std::move(in);
  return p;
}

void AddPsimOutcomes(const PsimPass& pass, uint64_t requests, Report* r) {
  r->Add("ok_frac", double(pass.completed) / double(requests), "fraction");
  r->Add("slo_attainment_p5", pass.slo_attainment_p5, "fraction");
  r->Add("cost_usd_per_1k_ok",
         pass.completed ? pass.cost_usd / double(pass.completed) * 1000.0 : 0,
         "usd");
  r->Extra("failed_frac", 1.0 - double(pass.completed) / double(requests),
           "fraction");
  r->Extra("sim_p50_ms", Quantile(pass.latency_ms, 0.5), "ms");
  r->Extra("sim_p99_ms", Quantile(pass.latency_ms, 0.99), "ms");
  r->Extra("sim_mean_ms", Mean(pass.latency_ms), "ms");
  r->Extra("sim_latency_samples", double(pass.latency_ms.size()), "count");
  r->Info("sim_digest", Hex(pass.digest));
}

void RunPsimE2E(const Options& o, Report* r) {
  const uint64_t start = SpanLog::NowNs();
  SpanLog off;
  HostSpeed host;
  std::vector<double> rps, wall_rps, wall_rps_nt, speedup, allocs, setup;
  PsimPass first;
  uint64_t requests = 0;
  for (int rep = 0; rep < 3 || ElapsedS(start) < o.seconds; ++rep) {
    PsimInput in;
    PsimPair p = RunPsimPair(o, rep == 0, &off, r, &in, &host);
    requests = in.requests;
    setup.push_back(p.gen_nominal_s + p.one.setup_nominal_s);
    setup.push_back(p.gen_nominal_s + p.many.setup_nominal_s);
    // Throughput comes from the 1-thread pass: the speed sampled on this
    // thread cannot rescale a pass whose barriers also wait on other
    // vCPUs. The parallel gain is psim_speedup.
    rps.push_back(double(in.requests) / p.one.run_nominal_s);
    wall_rps.push_back(double(in.requests) / p.one.run_s);
    wall_rps_nt.push_back(double(in.requests) / p.many.run_s);
    speedup.push_back(p.one.run_nominal_s / p.many.run_nominal_s);
    allocs.push_back(double(p.many.allocs) / double(in.requests));
    if (rep == 0) {
      AddPsimInputs(in, r);
      r->Info("reuse.repeat_share", "0");
      r->Info("obs.slo_window_events", "0");
      first = std::move(p.many);
    } else {
      r->Check(p.many.digest == first.digest,
               "sim_digest " + Hex(p.many.digest) +
                   " differs from the first repetition's " +
                   Hex(first.digest));
    }
  }
  r->Add("sim_req_per_s", Median(rps), "1/s");
  r->Add("allocs_per_req", Median(allocs), "count");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Add("setup_s", Median(setup), "s");
  r->Add("psim_speedup", Median(speedup), "x");
  r->Extra("wall_req_per_s", Median(wall_rps), "1/s");
  r->Extra("wall_req_per_s_nt", Median(wall_rps_nt), "1/s");
  r->Extra("host_speed", Median(host.samples()), "x");
  AddPsimOutcomes(first, requests, r);
  r->Info("sim_req_per_s_note", kNominalNote);
  r->samples["sim_req_per_s"] = rps;
  r->samples["wall_req_per_s"] = wall_rps;
  r->samples["wall_req_per_s_nt"] = wall_rps_nt;
  r->samples["host_speed"] = host.samples();
  r->samples["psim_speedup"] = speedup;
  r->samples["allocs_per_req"] = allocs;
  r->samples["setup_s"] = setup;
}

void RunPsimTraced(const Options& o, Report* r, SpanLog* log) {
  SpanLog off;
  PsimInput in;
  const PsimPair base = RunPsimPair(o, false, &off, r, &in);
  AddPsimInputs(in, r);
  log->Enable(4096);
  const PsimPair traced = RunPsimPair(o, false, log, r, nullptr);
  log->Disable();
  r->Check(traced.many.digest == base.many.digest,
           "traced sim_digest " + Hex(traced.many.digest) +
               " differs from the untraced " + Hex(base.many.digest));

  const PsimPass& m = base.many;
  const double n = double(in.requests);
  r->Add("sim.events", double(m.events), "count");
  r->Add("sim.events_per_req", double(m.events) / n, "count");
  r->Add("sim.ns_per_event", m.run_s * 1e9 / double(m.events), "ns");
  uint64_t decile_requests[10] = {};
  for (const CellPlan& plan : in.plans) {
    for (SimTime t : plan.at_us) {
      ++decile_requests[std::min<SimTime>(9, t * 10 / in.horizon_us)];
    }
  }
  AddDeciles(m.decile_s, decile_requests, r);
  r->Add("psim.epochs", double(m.epochs), "count");
  r->Add("psim.events_per_epoch", double(m.events) / double(m.epochs),
         "count");
  r->Add("psim.cross_posts", double(m.cross_posts), "count");
  r->Add("psim.clamped_posts", double(m.clamped_posts), "count");
  r->Add("psim.run_s_1t", base.one.run_s, "s");
  r->Add("psim.run_s_nt", m.run_s, "s");
  const PsimPass wide = RunPsimDay(in, MaxThreads(), false, &off);
  r->Check(wide.merged == base.one.merged,
           "merged exports differ between 1 and " +
               std::to_string(wide.threads) + " threads: digest " +
               Hex(base.one.digest) + " vs " + Hex(wide.digest));
  r->attempted += in.requests;
  r->Add("psim.run_s_4t", wide.run_s, "s");
  r->Add("psim.speedup_4t", base.one.run_s / wide.run_s, "x");

  // The FaaS-stack layers do none of this workload's work.
  for (const char* name :
       {"faas.invoke_ns_p50", "faas.invoke_ns_p99", "obs.flush_ns",
        "obs.export_ns", "ctrl.push_ns"}) {
    r->Add(name, 0, "ns");
  }
  for (const char* name :
       {"faas.invoke_count", "faas.cold_starts", "faas.retries",
        "faas.timeouts", "faas.throttled", "faas.peak_containers",
        "obs.slo_window_events", "guard.shed", "guard.retries_granted",
        "guard.retries_denied", "guard.hedges_launched", "reuse.lookups",
        "reuse.coalesced", "reuse.offers", "reuse.evictions", "ctrl.pushes",
        "ctrl.applied", "chaos.faults_injected", "chaos.recoveries"}) {
    r->Add(name, 0, "count");
  }
  for (const char* name :
       {"faas.warm_frac", "obs.retained_frac", "guard.hedge_win_frac",
        "reuse.hit_frac", "reuse.admit_frac", "reuse.repeat_share"}) {
    r->Add(name, 0, "fraction");
  }
  r->Add("obs.export_bytes", 0, "bytes");
  for (const char* rung : {"bare", "obs", "guard", "reuse", "ctrl", "chaos"}) {
    r->Add(std::string("ladder.") + rung + ".ns_per_req", 0, "ns");
    r->Add(std::string("ladder.") + rung + ".allocs_per_req", 0, "count");
  }
  const double untraced_rps = n / m.run_s;
  const double traced_rps = n / traced.many.run_s;
  r->Add("trace.sim_req_per_s", traced_rps, "1/s");
  r->Add("trace.untraced_sim_req_per_s", untraced_rps, "1/s");
  r->Add("trace.overhead_frac", 1.0 - traced_rps / untraced_rps, "fraction");
}

// ----------------------------------------------------------- output

void AddProvenance(const Options& o, double wall_s, Report* r) {
  std::vector<std::pair<std::string, std::string>> p = {
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"trace", o.trace ? "1" : "0"},
      {"scale", Num(o.scale)},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", __VERSION__},
      {"nproc", std::to_string(Nproc())},
      {"git_describe", o.git_describe},
      {"wall_s", Num(wall_s)}};
  r->info.insert(r->info.begin(), p.begin(), p.end());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
           Num(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

void WriteResultFile(const Options& o, const Report& r, const SpanLog& log) {
  if (o.out_dir.empty()) return;
  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) +
                           (o.trace ? "-trace" : "");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::string out = "{\"provenance\": {";
    for (size_t i = 0; i < r.info.size(); ++i) {
      out += (i ? ", " : "") + JsonString(r.info[i].first) + ": " +
             JsonString(r.info[i].second);
    }
    out += "}, \"samples\": {";
    bool first = true;
    for (const auto& [name, values] : r.samples) {
      out += (first ? "" : ", ") + JsonString(name) + ": [";
      for (size_t i = 0; i < values.size(); ++i) {
        out += (i ? ", " : "") + Num(values[i]);
      }
      out += "]";
      first = false;
    }
    out += "}, \"check_failures\": [";
    for (size_t i = 0; i < r.failures.size(); ++i) {
      out += (i ? ", " : "") + JsonString(r.failures[i]);
    }
    out += "], \"metrics\": " + MetricsJson(r.metrics) +
           ", \"extras\": " + MetricsJson(r.extras) + "}\n";
    std::fputs(out.c_str(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "perfbench: cannot write %s.json\n", stem.c_str());
  }
  if (o.trace && !log.WriteJsonLines(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "perfbench: cannot write %s.spans.jsonl\n",
                 stem.c_str());
  }
}

int Emit(const Options& o, Report& r, const SpanLog& log, double wall_s) {
  AddProvenance(o, wall_s, &r);
  for (const auto& [key, value] : r.info) {
    std::printf("# %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-32s %24.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : r.extras) {
    std::printf("%-32s %24.9g %s  (not gated)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  WriteResultFile(o, r, log);
  const bool correct = r.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted), r.failures.size(),
              MetricsJson(r.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// -------------------------------------------------------- self-check

void RunWorkload(const Options& o, Report* r, SpanLog* log) {
  if (o.workload == "psim_day") {
    o.trace ? RunPsimTraced(o, r, log) : RunPsimE2E(o, r);
  } else {
    o.trace ? RunFleetTraced(o, r, log) : RunFleetE2E(o, r);
  }
}

std::string InfoValue(const Report& r, const std::string& key) {
  for (const auto& [k, v] : r.info) {
    if (k == key) return v;
  }
  return "";
}

/// Every workload at a small shape, in seconds: the output checks of an
/// untraced run, a same-seed rerun whose sim_digest must match, and a
/// traced run.
int SelfCheck() {
  size_t failures = 0;
  for (const char* workload : {"fleet_day", "hot_keys", "psim_day"}) {
    std::string digest;
    for (int pass = 0; pass < 3; ++pass) {
      Options o;
      o.workload = workload;
      o.seed = 3;
      o.seconds = 0;
      o.scale = 0.05;
      o.trace = pass == 2;
      Report r;
      SpanLog log;
      RunWorkload(o, &r, &log);
      if (pass == 0) digest = InfoValue(r, "sim_digest");
      if (pass == 1) {
        r.Check(InfoValue(r, "sim_digest") == digest,
                "same-seed rerun sim_digest " + InfoValue(r, "sim_digest") +
                    ", expected " + digest);
      }
      for (const std::string& f : r.failures) {
        std::fprintf(stderr, "selfcheck %s pass %d: %s\n", workload, pass,
                     f.c_str());
      }
      failures += r.failures.size();
      std::printf("selfcheck %-10s %-7s %3zu metrics  %zu failed checks\n",
                  workload, pass == 2 ? "traced" : pass ? "rerun" : "run",
                  r.metrics.size(), r.failures.size());
    }
  }
  std::printf("selfcheck: %s\n", failures == 0 ? "OK" : "FAILED");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--selfcheck") {
      o->selfcheck = true;
    } else if (a == "--repro-keepalive-drain") {
      o->repro = true;
    } else if (a == "--workload" && (v = value("--workload"))) {
      o->workload = v;
    } else if (a == "--seed" && (v = value("--seed"))) {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value("--seconds"))) {
      o->seconds = std::atof(v);
    } else if (a == "--trace" && (v = value("--trace"))) {
      o->trace = std::atoi(v) != 0;
    } else if (a == "--out" && (v = value("--out"))) {
      o->out_dir = v;
    } else if (a == "--git-describe" && (v = value("--git-describe"))) {
      o->git_describe = v;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", a.c_str());
      return false;
    }
  }
  if (o->selfcheck || o->repro) return true;
  if (o->workload != "fleet_day" && o->workload != "hot_keys" &&
      o->workload != "psim_day") {
    std::fprintf(stderr,
                 "perfbench: --workload must be fleet_day, hot_keys or "
                 "psim_day\n");
    return false;
  }
  if (o->seconds < 0) {
    std::fprintf(stderr, "perfbench: --seconds must be >= 0\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  if (o.selfcheck) return SelfCheck();
  if (o.repro) return ReproKeepAliveDrain();
  const uint64_t start = SpanLog::NowNs();
  Report r;
  SpanLog log;
  RunWorkload(o, &r, &log);
  return Emit(o, r, log, ElapsedS(start));
}
