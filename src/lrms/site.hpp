// A grid site: static description + local scheduler + gatekeeper, wired to
// the network under a stable endpoint name. Produces the fresh SiteRecord
// snapshots the information system serves.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "infosys/site_record.hpp"
#include "lrms/gatekeeper.hpp"
#include "lrms/local_scheduler.hpp"

namespace cg::net {
class ControlBus;
}

namespace cg::lrms {

struct SiteConfig {
  std::string name;
  std::string arch = "i686";
  std::string op_sys = "linux-2.4";
  int worker_nodes = 4;
  std::int64_t memory_mb_per_node = 1024;
  std::int64_t storage_gb = 600;
  double cpu_speed = 1.0;
  LocalSchedulerConfig lrms;
  GatekeeperConfig gatekeeper;
  /// Round-trip for a direct information query against this site.
  Duration info_query_latency = Duration::millis(150);
};

class Site {
public:
  Site(sim::Simulation& sim, net::ControlBus& bus, SiteId id, SiteConfig config);

  [[nodiscard]] SiteId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }
  /// Network endpoint of the gatekeeper ("site:<name>"). The site's glide-in
  /// agents send and receive under it too.
  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  [[nodiscard]] const SiteConfig& config() const { return config_; }

  [[nodiscard]] LocalScheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] const LocalScheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] Gatekeeper& gatekeeper() { return *gatekeeper_; }

  [[nodiscard]] infosys::SiteStaticInfo static_info() const;
  /// Live snapshot: the information system's FreshProvider.
  [[nodiscard]] infosys::SiteRecord snapshot() const;

  /// Hook installed by the broker, which keeps the site's glide-in agents:
  /// how many free interactive VMs this site currently exports.
  void set_interactive_vm_counter(std::function<int()> counter);

private:
  sim::Simulation& sim_;
  SiteId id_;
  SiteConfig config_;
  std::string endpoint_;
  std::unique_ptr<LocalScheduler> scheduler_;
  std::unique_ptr<Gatekeeper> gatekeeper_;
  std::function<int()> interactive_vm_counter_;
};

}  // namespace cg::lrms
