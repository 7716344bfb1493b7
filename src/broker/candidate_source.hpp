// CandidateSource: a non-owning view unifying the record-container shapes
// matchmaking scans — owned SiteRecord vectors (fresh per-site queries),
// shared IndexSnapshot pointer vectors (index replies), and raw-pointer
// vectors screened from a snapshot. The matchmaker's coarse filter and fused
// match run over this one view, so site-health consultation and every other
// per-record policy lives in exactly one implementation instead of a
// template instantiated per container shape.
//
// The view is implicitly constructible from both containers and is only
// valid while the viewed container lives; matchmaker calls consume it
// within the call, never store it.
#pragma once

#include <cstddef>
#include <vector>

#include "infosys/information_system.hpp"
#include "infosys/site_record.hpp"

namespace cg::broker {

class CandidateSource {
public:
  // NOLINTNEXTLINE(google-explicit-constructor): a view, by design implicit.
  CandidateSource(const std::vector<infosys::SiteRecord>& records)
      : records_{&records} {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  CandidateSource(const infosys::InformationSystem::IndexSnapshot& snapshot)
      : snapshot_{&snapshot} {}
  /// Pre-filtered view over records owned elsewhere (e.g. a shared index
  /// snapshot the broker screened without copying shared_ptrs).
  // NOLINTNEXTLINE(google-explicit-constructor)
  CandidateSource(const std::vector<const infosys::SiteRecord*>& pointers)
      : pointers_{&pointers} {}

  [[nodiscard]] std::size_t size() const {
    if (records_ != nullptr) return records_->size();
    if (snapshot_ != nullptr) return snapshot_->size();
    return pointers_->size();
  }
  [[nodiscard]] const infosys::SiteRecord& operator[](std::size_t i) const {
    if (records_ != nullptr) return (*records_)[i];
    if (snapshot_ != nullptr) return *(*snapshot_)[i];
    return *(*pointers_)[i];
  }

private:
  const std::vector<infosys::SiteRecord>* records_ = nullptr;
  const infosys::InformationSystem::IndexSnapshot* snapshot_ = nullptr;
  const std::vector<const infosys::SiteRecord*>* pointers_ = nullptr;
};

}  // namespace cg::broker
