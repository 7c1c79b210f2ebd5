#include "span_log.h"

#include <cstdio>

namespace perfbench {

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) out.push_back(double(s.DurationNs()));
  }
  return out;
}

uint64_t SpanLog::TotalNs(const std::string& name) const {
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) total += s.DurationNs();
  }
  return total;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                 "\"parent\": %lld, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                 i, s.name, static_cast<unsigned long long>(s.request),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(
                     s.end_ns != 0 ? s.end_ns - t0 : 0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
