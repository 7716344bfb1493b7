#include "broker/agent_registry.hpp"

#include <algorithm>

namespace cg::broker {

int AgentRecord::reservable_slots() const {
  if (suspected) return 0;
  return std::max(0, agent->free_interactive_slots() -
                         static_cast<int>(pending_interactive.size()));
}

bool AgentRecord::reserved(SubJobRef ref, bool interactive_slot) const {
  if (!interactive_slot) return pending_batch == ref;
  return std::find(pending_interactive.begin(), pending_interactive.end(),
                   ref) != pending_interactive.end();
}

void AgentRecord::drop_reservation(SubJobRef ref) {
  std::erase(pending_interactive, ref);
  if (pending_batch == ref) pending_batch.reset();
}

AgentRecord& AgentRegistry::create(SiteId site,
                                   glidein::GlideinAgentConfig config) {
  const AgentId id = ids_.next();
  auto agent = std::make_unique<glidein::GlideinAgent>(sim_, id, site, config);
  return records_.try_emplace(id, std::move(agent)).first->second;
}

void AgentRegistry::remove(AgentId id) {
  records_.erase(id);
}

glidein::GlideinAgent* AgentRegistry::find(AgentId id) {
  const auto it = records_.find(id);
  return it != records_.end() ? it->second.agent.get() : nullptr;
}

AgentRecord* AgentRegistry::record(AgentId id) {
  const auto it = records_.find(id);
  return it != records_.end() ? &it->second : nullptr;
}

const AgentRecord* AgentRegistry::record(AgentId id) const {
  const auto it = records_.find(id);
  return it != records_.end() ? &it->second : nullptr;
}

int AgentRegistry::running_agents() const {
  return static_cast<int>(std::count_if(
      records_.begin(), records_.end(), [](const auto& entry) {
        return entry.second.agent->state() == glidein::AgentState::kRunning;
      }));
}

}  // namespace cg::broker
