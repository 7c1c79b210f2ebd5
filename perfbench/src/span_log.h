// In-memory spans recorded by the benchmark around its own calls into each
// layer (traced runs only). A span has a name, host start/end times, the
// span that was open when it began, and the request it belongs to; spans
// of one request share the platform's invocation id. The log is written
// out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Span {
    const char* name = "";
    uint64_t request = 0;  ///< Invocation id; 0 when not per-request.
    uint32_t parent = kNone;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t DurationNs() const { return end_ns - start_ns; }
  };

  /// Recording is off until Enable(); Begin() then returns kNone and
  /// End() ignores it, so untraced runs pay one branch per boundary.
  void Enable(size_t reserve) {
    enabled_ = true;
    spans_.reserve(reserve);
  }
  void Disable() { enabled_ = false; }

  /// Opens a span under the currently open one. `name` must outlive the
  /// log (string literals).
  uint32_t Begin(const char* name, uint64_t request = 0) {
    if (!enabled_) return kNone;
    const uint32_t id = uint32_t(spans_.size());
    spans_.push_back({name, request, current_, NowNs(), 0});
    current_ = id;
    return id;
  }
  void End(uint32_t id) {
    if (id == kNone) return;
    Span& s = spans_[id];
    s.end_ns = NowNs();
    current_ = s.parent;
  }
  void SetRequest(uint32_t id, uint64_t request) {
    if (id != kNone) spans_[id].request = request;
  }

  /// Durations (ns) of every closed span named `name`, in record order.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of the durations of spans named `name`.
  uint64_t TotalNs(const std::string& name) const;

  /// One JSON object per line: id, name, request, parent, start/end ns
  /// relative to the first span. False when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

  static uint64_t NowNs() {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
  }

 private:
  bool enabled_ = false;
  uint32_t current_ = kNone;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log), id_(log->Begin(name, request)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_;
};

}  // namespace perfbench
