#include "host_speed.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "alloc_counter.h"
#include "span_log.h"

namespace perfbench {
namespace {

// The kernel is a miniature event loop: pop the earliest event from a
// binary heap, format a heap-allocated key, update a string-keyed hash
// table through a std::function, push a follow-up event. The table holds
// kKeys entries (a few hundred KiB, like a simulated world's hot state).
constexpr size_t kKeys = 4096;
constexpr size_t kQueued = 4096;
constexpr int kSteps = 20000;
/// Reference-kernel steps per second on the nominal host, a fixed
/// constant near the kernel's speed on an uncontended 2.0 GHz Xeon vCPU.
constexpr double kNominalStepsPerS = 3.0e6;

}  // namespace

HostSpeed::HostSpeed() {
  table_.reserve(kKeys);
  heap_.reserve(kQueued + 1);
  for (uint32_t i = 0; i < kQueued; ++i) heap_.push_back({i, i});
}

double HostSpeed::Sample(uint64_t* allocs) {
  const uint64_t allocs0 = AllocCount();
  const auto later = [](const Event& a, const Event& b) { return a.at > b.at; };
  std::make_heap(heap_.begin(), heap_.end(), later);
  uint64_t sum = 0;
  const uint64_t t0 = SpanLog::NowNs();
  for (int step = 0; step < kSteps; ++step) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Event ev = heap_.back();
    heap_.pop_back();
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t key = uint32_t(state_ >> 40) % kKeys;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "tenant-%02u/function-%05u", key % 50,
                  key);
    const std::function<uint64_t(uint64_t)> fold = [&sum, key](uint64_t v) {
      return sum += v ^ key;
    };
    table_[std::string(buf)] += fold(ev.at);
    heap_.push_back({ev.at + (state_ >> 54), key});
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  const double s = double(SpanLog::NowNs() - t0) / 1e9;
  if (allocs != nullptr) *allocs += AllocCount() - allocs0;
  if (sum == 42) std::fputc(' ', stderr);  // Keeps the loop observable.
  const double speed = double(kSteps) / s / kNominalStepsPerS;
  samples_.push_back(speed);
  return speed;
}

}  // namespace perfbench
