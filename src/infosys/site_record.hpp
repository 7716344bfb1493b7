// Site descriptions as published to the information system. The broker's
// matchmaking evaluates compiled job expressions against each record's
// machine view; staleness between published and live state is what forces
// the paper's two-step discovery+selection.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "jdl/classad.hpp"
#include "jdl/compiled_match.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace cg::infosys {

/// Attributes that do not change while a site is up.
struct SiteStaticInfo {
  SiteId id;
  std::string name;
  std::string arch = "i686";        ///< paper testbed: PIII..Xeon
  std::string op_sys = "linux-2.4";
  int worker_nodes = 0;
  int cpus_per_node = 1;
  std::int64_t memory_mb_per_node = 1024;
  std::int64_t storage_gb = 600;    ///< "most sites offer storage above 600GB"

  [[nodiscard]] int total_cpus() const { return worker_nodes * cpus_per_node; }

  [[nodiscard]] bool operator==(const SiteStaticInfo&) const = default;
};

/// Attributes that change as jobs come and go.
struct SiteDynamicInfo {
  int free_cpus = 0;
  int running_jobs = 0;
  int queued_jobs = 0;
  /// Free interactive-vm slots exported by glide-in agents on this site.
  int free_interactive_vms = 0;

  [[nodiscard]] bool operator==(const SiteDynamicInfo&) const = default;
};

/// The dense attribute layout every machine ad follows. Must stay in sync
/// with SiteRecord::to_classad; compiled job expressions resolve `other.X`
/// references against this layout.
[[nodiscard]] const jdl::SlotLayout& machine_slot_layout();

/// Slot index of FreeCPUs in machine_slot_layout() — the one attribute the
/// matchmaker overrides per evaluation (leases shadow the published count).
[[nodiscard]] int machine_free_cpus_slot();

struct SiteRecord {
  /// The machine view of a record, built once per publication and shared by
  /// every copy of the record the information system hands out.
  struct MachineView {
    SiteStaticInfo static_info;    ///< inputs the view was built from
    SiteDynamicInfo dynamic_info;
    jdl::SlotValues slots;         ///< attribute values in layout order
  };

  SiteStaticInfo static_info;
  SiteDynamicInfo dynamic_info;
  /// When the dynamic half was sampled (publication timestamp).
  SimTime sampled_at;

  /// The record as a machine ClassAd (`other.*` in job Requirements). Only
  /// the test oracle uses it: the interpreter (jdl::symmetric_match) over
  /// this ad is the reference the compiled matchmaker is checked against.
  /// Matchmaking itself evaluates against machine_view().slots.
  [[nodiscard]] jdl::ClassAd to_classad() const;

  /// Cached machine view; rebuilt lazily when the record's fields no longer
  /// match the inputs the cache was built from (so stale caches can never
  /// leak through mutation — republishing or editing a record invalidates
  /// by value comparison, not by discipline).
  [[nodiscard]] const MachineView& machine_view() const;

  /// True when machine_view() would be a cache hit (metrics/tests).
  [[nodiscard]] bool cache_primed() const;

  /// Builds the cache eagerly; the information system primes records at
  /// publication so every handed-out copy shares one view.
  void prime_cache() const { (void)machine_view(); }

private:
  mutable std::shared_ptr<const MachineView> cached_view_;
};

}  // namespace cg::infosys
