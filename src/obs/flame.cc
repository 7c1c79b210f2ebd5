#include "obs/flame.h"

#include <algorithm>
#include <cstdio>
#include <functional>

#include "common/hash.h"

namespace taureau::obs {

size_t FlameProfile::ChildKeyHash::operator()(const ChildKey& k) const {
  return HashCombine(k.parent, std::hash<std::string_view>{}(k.name));
}

uint32_t FlameProfile::Child(uint32_t parent, const std::string& name) {
  const auto it = children_.find(ChildKey{parent, name});
  if (it != children_.end()) return it->second;
  const auto id = static_cast<uint32_t>(nodes_.size());
  PathNode& node = nodes_.emplace_back();
  node.path = parent == kNoNode ? name : nodes_[parent].path + ";" + name;
  const std::string_view tail(node.path);
  children_.emplace(ChildKey{parent, tail.substr(tail.size() - name.size())},
                    id);
  return id;
}

void FlameProfile::FoldTrace(const std::vector<Span>& spans) {
  if (spans.empty()) return;
  ++folded_traces_;

  // Path node of each span: its parent's node extended by its name; group
  // roots (parent absent from the group) start a top-level path.
  node_of_.resize(spans.size());
  group_roots_.clear();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const size_t p = s.parent == 0 ? spans.size() : SpanIndex(spans, s.parent);
    if (p == spans.size()) group_roots_.push_back(i);
    // A parent placed after its child has no node yet; its child renders
    // as a top-level path, as the string-keyed fold did.
    node_of_[i] = Child(p < i ? node_of_[p] : kNoNode, s.name);
  }

  // One attribution pass per subtree root charges every span's self time
  // and the root's category breakdown. Each span belongs to exactly one
  // subtree, so accumulating self time across the passes never
  // double-counts.
  self_.assign(spans.size(), 0);
  Breakdown breakdown;
  for (size_t r : group_roots_) {
    const Span& root = spans[r];
    if (!root.ended()) continue;  // unfinished root: skip its subtree
    AttributeTraceInto(spans, r, &scratch_, &self_, &breakdown);
    RootAggregate& agg = by_root_[root.name];
    ++agg.count;
    agg.breakdown.Accumulate(breakdown);
    const auto tenant = root.attrs.find(kTenantAttr);
    if (tenant != root.attrs.end()) {
      RootAggregate& tagg = by_tenant_[tenant->second];
      ++tagg.count;
      tagg.breakdown.Accumulate(breakdown);
    }
  }

  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (!s.ended()) continue;
    PathStat& stat = nodes_[node_of_[i]].stat;
    ++stat.count;
    stat.total_us += s.duration_us();
    stat.self_us += self_[i];
    ++folded_spans_;
  }
}

std::map<std::string, PathStat> FlameProfile::paths() const {
  std::map<std::string, PathStat> out;
  for (const PathNode& node : nodes_) {
    if (node.stat.count == 0) continue;  // only ever an unended span's path
    PathStat& stat = out[node.path];
    stat.count += node.stat.count;
    stat.total_us += node.stat.total_us;
    stat.self_us += node.stat.self_us;
  }
  return out;
}

std::vector<std::pair<std::string, PathStat>> FlameProfile::TopKBySelf(
    size_t k) const {
  const std::map<std::string, PathStat> all = paths();
  std::vector<std::pair<std::string, PathStat>> out(all.begin(), all.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.self_us != b.second.self_us) {
      return a.second.self_us > b.second.self_us;
    }
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::string FlameProfile::ExportText() const {
  std::string out;
  char buf[96];
  for (const auto& [path, stat] : paths()) {
    std::snprintf(buf, sizeof(buf), " count=%llu total=%lld self=%lld\n",
                  static_cast<unsigned long long>(stat.count),
                  static_cast<long long>(stat.total_us),
                  static_cast<long long>(stat.self_us));
    out += path + buf;
  }
  return out;
}

std::string FlameProfile::ExportTenantsText() const {
  return FormatRootAggregates(by_tenant_);
}

void FlameProfile::Clear() {
  nodes_.clear();
  children_.clear();
  by_root_.clear();
  by_tenant_.clear();
  folded_spans_ = 0;
  folded_traces_ = 0;
}

std::string FormatRootAggregates(
    const std::map<std::string, RootAggregate>& by_root) {
  std::string out;
  char buf[64];
  for (const auto& [name, agg] : by_root) {
    std::snprintf(buf, sizeof(buf), " count=%llu ",
                  static_cast<unsigned long long>(agg.count));
    out += name + buf + agg.breakdown.ToString() + "\n";
  }
  return out;
}

}  // namespace taureau::obs
