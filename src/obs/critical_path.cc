#include "obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace taureau::obs {

std::string_view CategoryName(Category c) {
  switch (c) {
    case Category::kQueue:
      return "queue";
    case Category::kColdStart:
      return "cold";
    case Category::kExec:
      return "exec";
    case Category::kShuffle:
      return "shuffle";
    case Category::kRetry:
      return "retry";
    case Category::kGuard:
      return "guard";
    case Category::kReuse:
      return "reuse";
    case Category::kOther:
      return "other";
  }
  return "?";
}

std::optional<Category> ParseCategory(std::string_view name) {
  for (size_t i = 0; i < kCategoryCount; ++i) {
    const auto c = static_cast<Category>(i);
    if (CategoryName(c) == name) return c;
  }
  return std::nullopt;
}

SimDuration Breakdown::Sum() const {
  SimDuration total = 0;
  for (SimDuration d : by_category) total += d;
  return total;
}

void Breakdown::Accumulate(const Breakdown& other) {
  total_us += other.total_us;
  for (size_t i = 0; i < kCategoryCount; ++i) {
    by_category[i] += other.by_category[i];
  }
}

std::string Breakdown::ToString() const {
  std::string out = "total=" + std::to_string(total_us) + "us";
  char buf[64];
  for (size_t i = 0; i < kCategoryCount; ++i) {
    const auto c = static_cast<Category>(i);
    std::snprintf(buf, sizeof(buf), " %s=%lld (%.1f%%)",
                  std::string(CategoryName(c)).c_str(),
                  static_cast<long long>(by_category[i]),
                  100.0 * Fraction(c));
    out += buf;
  }
  return out;
}

size_t SpanIndex(const std::vector<Span>& spans, uint64_t id) {
  // Gap-free slices (the tracer's retain store holds ids 1..n) resolve
  // directly; anything else falls back to the binary search.
  if (!spans.empty() && id >= spans.front().id) {
    const uint64_t guess = id - spans.front().id;
    if (guess < spans.size() && spans[guess].id == id) return size_t(guess);
  }
  const auto it = std::lower_bound(
      spans.begin(), spans.end(), id,
      [](const Span& a, uint64_t key) { return a.id < key; });
  return it != spans.end() && it->id == id ? size_t(it - spans.begin())
                                           : spans.size();
}

void AttributeTraceInto(const std::vector<Span>& spans, size_t root_index,
                        AttributionScratch* scratch,
                        std::vector<SimDuration>* self_us,
                        Breakdown* breakdown) {
  const Span& root = spans[root_index];
  *breakdown = Breakdown{};
  breakdown->total_us = root.duration_us();
  if (breakdown->total_us == 0) return;

  // Parents always precede children in id order, so a single forward pass
  // from the root both computes tree depth under the root and collects the
  // descendant intervals, clipped to the root window. Every finished
  // descendant is an interval (self-time needs all of them); only
  // categorized ones carry a category.
  std::vector<int>& depth = scratch->depth;
  std::vector<AttributionScratch::Interval>& intervals = scratch->intervals;
  std::vector<SimTime>& bounds = scratch->bounds;
  depth.assign(spans.size(), -1);
  depth[root_index] = 0;
  intervals.clear();
  bounds.clear();
  bounds.push_back(root.start_us);
  bounds.push_back(root.end_us);
  for (size_t i = root_index + 1; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent == 0) continue;
    const size_t p = SpanIndex(spans, s.parent);
    if (p == spans.size() || depth[p] < 0) continue;
    depth[i] = depth[p] + 1;
    if (!s.ended()) continue;
    const auto it = s.attrs.find(kCategoryAttr);
    const auto cat = it != s.attrs.end() ? ParseCategory(it->second)
                                         : std::nullopt;
    const SimTime lo = std::max(s.start_us, root.start_us);
    const SimTime hi = std::min(s.end_us, root.end_us);
    if (hi <= lo) continue;
    intervals.push_back({lo, hi, depth[i], s.id, i, cat.has_value(),
                         cat.value_or(Category::kOther)});
    bounds.push_back(lo);
    bounds.push_back(hi);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Each elementary interval between consecutive boundary points is covered
  // by a fixed set of spans; charge its category to the deepest categorized
  // cover (ties broken toward the earliest-created span), or to kOther when
  // no categorized span covers it, and its self-time to the deepest cover
  // of any kind (the root when none). Charging every elementary interval
  // exactly once is what makes both partitions sum to total_us without
  // tolerance.
  using Interval = AttributionScratch::Interval;
  for (size_t i = 0; i + 1 < bounds.size(); ++i) {
    const SimTime lo = bounds[i];
    const SimTime hi = bounds[i + 1];
    const Interval* best_cat = nullptr;
    const Interval* best_any = nullptr;
    for (const Interval& iv : intervals) {
      if (iv.start > lo || iv.end < hi) continue;
      const bool deeper_any =
          best_any == nullptr || iv.depth > best_any->depth ||
          (iv.depth == best_any->depth && iv.id < best_any->id);
      if (deeper_any) best_any = &iv;
      if (!iv.has_cat) continue;
      if (best_cat == nullptr || iv.depth > best_cat->depth ||
          (iv.depth == best_cat->depth && iv.id < best_cat->id)) {
        best_cat = &iv;
      }
    }
    const Category cat =
        best_cat != nullptr ? best_cat->cat : Category::kOther;
    breakdown->by_category[static_cast<size_t>(cat)] += hi - lo;
    (*self_us)[best_any != nullptr ? best_any->index : root_index] += hi - lo;
  }
}

Result<TraceAttribution> AttributeTrace(const std::vector<Span>& spans,
                                        uint64_t root_span_id) {
  const size_t root_index = SpanIndex(spans, root_span_id);
  if (root_index == spans.size()) {
    return Status::NotFound("no span with id " + std::to_string(root_span_id));
  }
  if (!spans[root_index].ended()) {
    return Status::FailedPrecondition("root span " +
                                      std::to_string(root_span_id) +
                                      " is still open");
  }
  TraceAttribution out;
  out.self_us.assign(spans.size(), 0);
  AttributionScratch scratch;
  AttributeTraceInto(spans, root_index, &scratch, &out.self_us,
                     &out.breakdown);
  return out;
}

Result<Breakdown> AnalyzeCriticalPath(const Tracer& tracer,
                                      uint64_t root_span_id) {
  const Span* root = tracer.Find(root_span_id);
  if (root == nullptr) {
    return Status::NotFound("no span with id " + std::to_string(root_span_id));
  }
  if (root->parent != 0) {
    return Status::FailedPrecondition("span " + std::to_string(root_span_id) +
                                      " is not a trace root");
  }
  if (!root->ended()) {
    return Status::FailedPrecondition("root span " +
                                      std::to_string(root_span_id) +
                                      " is still open");
  }
  auto attributed = AttributeTrace(tracer.spans(), root_span_id);
  TAU_RETURN_IF_ERROR(attributed.status());
  return attributed->breakdown;
}

}  // namespace taureau::obs
