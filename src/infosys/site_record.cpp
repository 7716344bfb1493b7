#include "infosys/site_record.hpp"

namespace cg::infosys {

namespace {

// The machine-ad schema. Attribute order here defines the slot layout;
// make_slots() and SiteRecord::to_classad must list the same attributes in
// the same order.
constexpr const char* kMachineAttrs[] = {
    "Name",        "Arch",       "OpSys",      "WorkerNodes",
    "CpusPerNode", "TotalCPUs",  "MemoryMB",   "StorageGB",
    "FreeCPUs",    "RunningJobs", "QueuedJobs", "FreeInteractiveVMs",
};

jdl::SlotLayout build_layout() {
  jdl::SlotLayout layout;
  for (const char* name : kMachineAttrs) layout.add(name);
  return layout;
}

jdl::SlotValues make_slots(const SiteStaticInfo& s, const SiteDynamicInfo& d) {
  jdl::SlotValues slots;
  slots.reserve(std::size(kMachineAttrs));
  slots.push_back(jdl::Value::string(s.name));
  slots.push_back(jdl::Value::string(s.arch));
  slots.push_back(jdl::Value::string(s.op_sys));
  slots.push_back(jdl::Value::integer(s.worker_nodes));
  slots.push_back(jdl::Value::integer(s.cpus_per_node));
  slots.push_back(jdl::Value::integer(s.total_cpus()));
  slots.push_back(jdl::Value::integer(s.memory_mb_per_node));
  slots.push_back(jdl::Value::integer(s.storage_gb));
  slots.push_back(jdl::Value::integer(d.free_cpus));
  slots.push_back(jdl::Value::integer(d.running_jobs));
  slots.push_back(jdl::Value::integer(d.queued_jobs));
  slots.push_back(jdl::Value::integer(d.free_interactive_vms));
  return slots;
}

}  // namespace

const jdl::SlotLayout& machine_slot_layout() {
  static const jdl::SlotLayout layout = build_layout();
  return layout;
}

int machine_free_cpus_slot() {
  static const int slot = machine_slot_layout().index_of("FreeCPUs");
  return slot;
}

jdl::ClassAd SiteRecord::to_classad() const {
  jdl::ClassAd ad;
  ad.set_string("Name", static_info.name);
  ad.set_string("Arch", static_info.arch);
  ad.set_string("OpSys", static_info.op_sys);
  ad.set_int("WorkerNodes", static_info.worker_nodes);
  ad.set_int("CpusPerNode", static_info.cpus_per_node);
  ad.set_int("TotalCPUs", static_info.total_cpus());
  ad.set_int("MemoryMB", static_info.memory_mb_per_node);
  ad.set_int("StorageGB", static_info.storage_gb);
  ad.set_int("FreeCPUs", dynamic_info.free_cpus);
  ad.set_int("RunningJobs", dynamic_info.running_jobs);
  ad.set_int("QueuedJobs", dynamic_info.queued_jobs);
  ad.set_int("FreeInteractiveVMs", dynamic_info.free_interactive_vms);
  return ad;
}

const SiteRecord::MachineView& SiteRecord::machine_view() const {
  if (!cache_primed()) {
    auto view = std::make_shared<MachineView>();
    view->static_info = static_info;
    view->dynamic_info = dynamic_info;
    view->slots = make_slots(static_info, dynamic_info);
    cached_view_ = std::move(view);
  }
  return *cached_view_;
}

bool SiteRecord::cache_primed() const {
  return cached_view_ != nullptr && cached_view_->static_info == static_info &&
         cached_view_->dynamic_info == dynamic_info;
}

}  // namespace cg::infosys
