// The broker's agent table: every glide-in agent it deployed, owned together
// with what the broker tracks about it (reservations, residents, supervision
// state). The paper's key startup result rests on this: "information about
// existing VMs is kept locally by CrossBroker", so interactive submission in
// shared mode skips the discovery and selection phases entirely.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "broker/job_record.hpp"
#include "glidein/agent.hpp"

namespace cg::broker {

/// One deployed agent and the broker's bookkeeping for it. The agent's id
/// and carrier job are read from the agent itself. Reservations and
/// residents name subjobs by SubJobRef; an entry of a superseded attempt
/// keeps counting until it is dropped.
struct AgentRecord {
  explicit AgentRecord(std::unique_ptr<glidein::GlideinAgent> owned)
      : agent{std::move(owned)}, site_{agent->site()} {}

  [[nodiscard]] AgentId id() const { return agent->id(); }
  /// Kept with the record, not read from the agent: AgentRegistry::remove
  /// files the record out of its site's list after the death path has moved
  /// the agent out.
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] JobId carrier_job() const { return agent->carrier_job_id(); }

  /// Free interactive slots minus reservations, never negative: what a new
  /// placement may still take. A suspected agent offers nothing until it
  /// re-registers.
  [[nodiscard]] int reservable_slots() const;

  /// True while `ref` holds a reservation on the interactive or batch slot.
  [[nodiscard]] bool reserved(SubJobRef ref, bool interactive_slot) const;
  /// Drops `ref`'s reservation, if it holds one.
  void drop_reservation(SubJobRef ref);

  std::unique_ptr<glidein::GlideinAgent> agent;
  bool ran_any_job = false;
  std::optional<SubJobRef> batch_resident;
  /// Subjobs resident on the agent's interactive VMs (one per slot; several
  /// with a multiprogramming degree above 1).
  std::vector<SubJobRef> interactive_residents;
  /// Interactive subjobs reserved onto slots but not yet started.
  std::vector<SubJobRef> pending_interactive;
  std::optional<SubJobRef> pending_batch;
  /// Supervision state, written only by AgentSupervisor: consecutive ticks
  /// without a heartbeat, whether one arrived since the last tick, and
  /// whether the agent is currently suspected unreachable (placement skips
  /// it).
  int missed = 0;
  bool heard = false;
  bool suspected = false;
  /// When the current suspicion began; guards the grace timer against
  /// suspect -> restore -> suspect races.
  std::optional<SimTime> suspected_since;
  /// Set when the agent's AgentRegister arrives: from then on every
  /// supervision tick visits it, until it leaves the table.
  bool supervised = false;
  /// The subjob whose dispatch deployed the agent, until its AgentRegister
  /// arrives (which starts the subjob) or its carrier is refused (which
  /// resubmits it). A preloaded agent names none.
  std::optional<SubJobRef> deployed_for;

private:
  SiteId site_;
};

class AgentRegistry {
public:
  using Table = std::map<AgentId, AgentRecord>;

  explicit AgentRegistry(sim::Simulation& sim) : sim_{sim} {}

  /// Creates an agent bound to a site, with an empty record; the caller
  /// submits its carrier job. A bad config throws and leaves the table
  /// unchanged.
  AgentRecord& create(SiteId site, glidein::GlideinAgentConfig config = {});

  /// Permanently removes an agent (after death, dismissal or a refused
  /// carrier).
  void remove(AgentId id);

  [[nodiscard]] glidein::GlideinAgent* find(AgentId id);
  [[nodiscard]] AgentRecord* record(AgentId id);
  [[nodiscard]] const AgentRecord* record(AgentId id) const;

  [[nodiscard]] int total_agents() const {
    return static_cast<int>(records_.size());
  }
  [[nodiscard]] int running_agents() const;

  /// Iteration in ascending AgentId order: placement and supervision walk
  /// the table in this order, and the pinned traces depend on it.
  [[nodiscard]] Table::iterator begin() { return records_.begin(); }
  [[nodiscard]] Table::iterator end() { return records_.end(); }
  [[nodiscard]] Table::const_iterator begin() const { return records_.begin(); }
  [[nodiscard]] Table::const_iterator end() const { return records_.end(); }

  /// The records at one site, in ascending AgentId order (the table's own
  /// order restricted to the site): per-site questions cost the agents at
  /// that site, not the whole grid. Valid until the next create or remove.
  [[nodiscard]] std::span<AgentRecord* const> at_site(SiteId site);
  [[nodiscard]] std::span<const AgentRecord* const> at_site(SiteId site) const;

private:
  sim::Simulation& sim_;
  IdGenerator<AgentId> ids_;
  Table records_;
  /// Per-site index over records_. Ids only grow, so create appends and
  /// each list stays ascending.
  std::unordered_map<SiteId, std::vector<AgentRecord*>> by_site_;
};

}  // namespace cg::broker
