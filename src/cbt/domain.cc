#include "cbt/domain.h"

#include <cassert>

namespace cbt::core {

void CbtDomain::ShardRoutes(int regions,
                            const std::function<int(NodeId)>& region_of) {
  assert(regions >= 1);
  shard_routes_.clear();
  shard_routes_.reserve(static_cast<std::size_t>(regions));
  for (int r = 0; r < regions; ++r) {
    shard_routes_.push_back(
        std::make_unique<routing::RouteManager>(*sim_, routes_.mode()));
  }
  for (const auto& [id, router] : routers_) {
    const int r = region_of(id);
    assert(r >= 0 && r < regions);
    router->set_routes(shard_routes_[static_cast<std::size_t>(r)].get());
  }
}

void CbtDomain::CrashRouter(NodeId id) {
  sim_->SetNodeUp(id, false);
  router(id).Crash();
}

void CbtDomain::RestartRouter(NodeId id) {
  sim_->SetNodeUp(id, true);
  router(id).Restart();
}

netsim::ChaosInjector::Hooks CbtDomain::ChaosHooks() {
  netsim::ChaosInjector::Hooks hooks;
  // The injector flips the node's up flag itself; these hooks only handle
  // the agent's protocol state.
  hooks.on_crash = [this](NodeId id) {
    if (routers_.contains(id)) router(id).Crash();
  };
  hooks.on_restart = [this](NodeId id) {
    if (routers_.contains(id)) router(id).Restart();
  };
  return hooks;
}

std::vector<NodeId> CbtDomain::OnTreeRouters(Ipv4Address group) const {
  std::vector<NodeId> out;
  for (const auto& [id, router] : routers_) {
    if (router->IsOnTree(group)) out.push_back(id);
  }
  return out;
}

}  // namespace cbt::core
