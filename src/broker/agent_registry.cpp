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
  AgentRecord& rec = records_.try_emplace(id, std::move(agent)).first->second;
  by_site_[site].push_back(&rec);
  return rec;
}

void AgentRegistry::remove(AgentId id) {
  const auto it = records_.find(id);
  if (it == records_.end()) return;
  // The record's own site, never its agent: the death path moves the agent
  // out of the record before removing it.
  std::vector<AgentRecord*>& at = by_site_[it->second.site()];
  at.erase(std::find(at.begin(), at.end(), &it->second));
  records_.erase(it);
}

std::span<AgentRecord* const> AgentRegistry::at_site(SiteId site) {
  const auto it = by_site_.find(site);
  if (it == by_site_.end()) return {};
  return it->second;
}

std::span<const AgentRecord* const> AgentRegistry::at_site(SiteId site) const {
  const auto it = by_site_.find(site);
  if (it == by_site_.end()) return {};
  return it->second;
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
