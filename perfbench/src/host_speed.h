// How fast this host runs simulator-like code right now. On a few vCPUs
// of a shared machine the speed of one vCPU swings by up to 1.7x over
// seconds with no steal time reported, so the cause is outside the guest.
// A fixed reference kernel, run between slices of a timed phase, measures
// that speed so each slice's wall time can be rescaled to a nominal host.
// The kernel lives only in the benchmark, so a change to the simulator
// cannot move it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "span_log.h"

namespace perfbench {

class HostSpeed {
 public:
  HostSpeed();

  /// Runs the reference kernel once (about 10 ms) and returns the host's
  /// speed relative to the nominal host: 1 = nominal, 0.6 = a slow phase.
  /// Adds the allocations it makes to `*allocs` when given, so callers
  /// can leave them out of their own counts.
  double Sample(uint64_t* allocs);

  /// Every speed returned so far, in order.
  const std::vector<double>& samples() const { return samples_; }

 private:
  struct Event {
    uint64_t at;
    uint32_t key;
  };
  std::vector<Event> heap_;
  std::unordered_map<std::string, uint64_t> table_;
  std::vector<double> samples_;
  uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

/// Times the consecutive slices of one phase, sampling the host's speed
/// before the first slice and after each one (outside the slices), and
/// rescales each slice by the mean of the samples around it. Without a
/// HostSpeed it is a plain stopwatch.
class SliceClock {
 public:
  explicit SliceClock(HostSpeed* host)
      : host_(host), before_(host ? host->Sample(nullptr) : 1.0) {}

  /// Runs `body` as the next slice; returns its wall seconds.
  template <class Body>
  double Slice(Body&& body) {
    const uint64_t t0 = SpanLog::NowNs();
    std::forward<Body>(body)();
    const double wall = double(SpanLog::NowNs() - t0) / 1e9;
    const double after = host_ ? host_->Sample(&probe_allocs_) : 1.0;
    wall_s_ += wall;
    nominal_s_ += wall * 0.5 * (before_ + after);
    before_ = after;
    return wall;
  }

  double wall_s() const { return wall_s_; }
  double nominal_s() const { return nominal_s_; }
  /// Allocations made by the samples taken after construction.
  uint64_t probe_allocs() const { return probe_allocs_; }

 private:
  HostSpeed* host_;
  double before_;
  double wall_s_ = 0;
  double nominal_s_ = 0;
  uint64_t probe_allocs_ = 0;
};

}  // namespace perfbench
