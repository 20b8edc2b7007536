#include "netram/registry.hpp"

#include <algorithm>
#include <cassert>

namespace now::netram {

IdleMemoryRegistry::IdleMemoryRegistry()
    : stats_obs_("netram", [this](obs::Sink& s) {
        s.counter("donor_revocations", stats_.donor_revocations);
        s.counter("donor_crashes", stats_.donor_crashes);
      }) {}

void IdleMemoryRegistry::add_donor(os::Node& node) {
  if (donors_.contains(node.id())) return;
  donors_.emplace(node.id(), &node);
  order_.push_back(node.id());
}

void IdleMemoryRegistry::remove(net::NodeId id) {
  donors_.erase(id);
  const auto it = std::find(order_.begin(), order_.end(), id);
  if (it != order_.end()) {
    const auto idx = static_cast<std::size_t>(it - order_.begin());
    order_.erase(it);
    if (cursor_ > idx) --cursor_;
    if (cursor_ >= order_.size()) cursor_ = 0;
  }
}

void IdleMemoryRegistry::revoke_donor(net::NodeId id) {
  if (!donors_.contains(id)) return;
  remove(id);
  ++stats_.donor_revocations;
  for (const auto& obs : observers_) obs(id, /*graceful=*/true);
}

void IdleMemoryRegistry::donor_crashed(net::NodeId id) {
  if (!donors_.contains(id)) return;
  remove(id);
  ++stats_.donor_crashes;
  for (const auto& obs : observers_) obs(id, /*graceful=*/false);
}

bool IdleMemoryRegistry::is_donor(net::NodeId id) const {
  return donors_.contains(id);
}

net::NodeId IdleMemoryRegistry::acquire(std::uint64_t bytes,
                                        net::NodeId exclude) {
  if (order_.empty()) return net::kInvalidNode;
  for (std::size_t probe = 0; probe < order_.size(); ++probe) {
    const net::NodeId id = order_[(cursor_ + probe) % order_.size()];
    if (id == exclude) continue;
    os::Node* n = donors_.at(id);
    if (n->alive() && n->reserve_dram(bytes)) {
      cursor_ = (cursor_ + probe + 1) % order_.size();
      return id;
    }
  }
  return net::kInvalidNode;
}

void IdleMemoryRegistry::release(net::NodeId id, std::uint64_t bytes) {
  const auto it = donors_.find(id);
  if (it == donors_.end()) return;  // donor already left the pool
  it->second->release_dram(bytes);
}

std::uint64_t IdleMemoryRegistry::pool_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& [id, n] : donors_) {
    if (n->alive()) sum += n->dram_free();
  }
  return sum;
}

}  // namespace now::netram
