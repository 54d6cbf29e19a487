#include "sim/tlb.hpp"

namespace specure::sim {

Tlb::Tlb(const CoreConfig& cfg)
    : cfg_(cfg),
      valid_(cfg.tlb_entries, 0),
      vpn_(cfg.tlb_entries, 0),
      ppn_(cfg.tlb_entries, 0) {}

bool Tlb::translate(std::uint64_t va, std::uint64_t& pa) {
  pa = va;  // identity mapping
  const std::uint64_t page = va >> cfg_.page_bits;
  for (unsigned i = 0; i < valid_.size(); ++i) {
    if (valid_[i] && vpn_[i] == page) return true;
  }
  valid_[next_victim_] = 1;
  vpn_[next_victim_] = page;
  ppn_[next_victim_] = page;
  if (dirty_ != nullptr) {
    dirty_->mark_range(tlb_base_ + std::size_t{3} * next_victim_, 3);
  }
  next_victim_ = (next_victim_ + 1) % valid_.size();
  return false;
}

}  // namespace specure::sim
