// Toy TLB: identity translation with a small fully-associative cache of
// page translations. The translations themselves are trivial (VA == PA),
// but the *residency* state is genuine microarchitectural residue that
// speculative accesses leave behind (a TLB side-channel surface; cf.
// TLBleed). Exposed to snapshots and to the IFG.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sim/dirty_set.hpp"

namespace specure::sim {

class Tlb {
 public:
  explicit Tlb(const CoreConfig& cfg);

  /// Attach the core's dirty set; entries interleave as (valid_i, vpn_i,
  /// ppn_i) triples starting at `tlb_base`. A translate() miss fills the
  /// round-robin victim and marks exactly that entry's triple.
  void bind_dirty(DirtySet* dirty, std::size_t tlb_base) {
    dirty_ = dirty;
    tlb_base_ = tlb_base;
  }

  /// Translate a virtual address. Returns true on TLB hit; a miss inserts
  /// the translation (round-robin replacement). `pa` is always valid.
  bool translate(std::uint64_t va, std::uint64_t& pa);

  bool valid(unsigned i) const { return valid_[i]; }
  std::uint64_t vpn(unsigned i) const { return vpn_[i]; }
  std::uint64_t ppn(unsigned i) const { return ppn_[i]; }
  unsigned entries() const { return static_cast<unsigned>(vpn_.size()); }

 private:
  const CoreConfig& cfg_;
  std::vector<char> valid_;
  std::vector<std::uint64_t> vpn_;
  std::vector<std::uint64_t> ppn_;
  unsigned next_victim_ = 0;
  DirtySet* dirty_ = nullptr;
  std::size_t tlb_base_ = 0;
};

}  // namespace specure::sim
