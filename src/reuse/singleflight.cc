#include "reuse/singleflight.h"

#include <algorithm>

namespace taureau::reuse {

bool Singleflight::Lead(const ContentKey& key, uint64_t leader_id) {
  auto [it, inserted] = flights_.try_emplace(key);
  if (!inserted) return false;
  it->second.leader_id = leader_id;
  ++leaders_;
  return true;
}

bool Singleflight::Attach(const ContentKey& key, Follower follower) {
  auto it = flights_.find(key);
  if (it == flights_.end()) return false;
  it->second.followers.push_back(std::move(follower));
  ++followers_attached_;
  max_fanout_ = std::max<uint64_t>(max_fanout_, it->second.followers.size());
  return true;
}

std::vector<Follower> Singleflight::Complete(const ContentKey& key) {
  auto it = flights_.find(key);
  if (it == flights_.end()) return {};
  std::vector<Follower> out = std::move(it->second.followers);
  flights_.erase(it);
  return out;
}

}  // namespace taureau::reuse
