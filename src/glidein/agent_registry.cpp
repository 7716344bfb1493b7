#include "glidein/agent_registry.hpp"

namespace cg::glidein {

GlideinAgent& AgentRegistry::create(SiteId site, GlideinAgentConfig config) {
  const AgentId id = ids_.next();
  auto agent = std::make_unique<GlideinAgent>(sim_, id, site, config);
  auto [it, inserted] = agents_.emplace(id, std::move(agent));
  return *it->second;
}

void AgentRegistry::remove(AgentId id) {
  agents_.erase(id);
}

GlideinAgent* AgentRegistry::find(AgentId id) {
  const auto it = agents_.find(id);
  return it != agents_.end() ? it->second.get() : nullptr;
}

GlideinAgent* AgentRegistry::find_by_carrier(JobId job) {
  for (auto& [id, agent] : agents_) {
    if (agent->carrier_job_id() == job) return agent.get();
  }
  return nullptr;
}

int AgentRegistry::running_agents() const {
  int n = 0;
  for (const auto& [id, agent] : agents_) {
    if (agent->state() == AgentState::kRunning) ++n;
  }
  return n;
}

std::vector<GlideinAgent*> AgentRegistry::agents() {
  std::vector<GlideinAgent*> out;
  out.reserve(agents_.size());
  for (auto& [id, agent] : agents_) out.push_back(agent.get());
  return out;
}

}  // namespace cg::glidein
