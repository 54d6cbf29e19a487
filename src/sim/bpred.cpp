#include "sim/bpred.hpp"

#include "util/bits.hpp"

namespace specure::sim {

BranchPredictor::BranchPredictor(const CoreConfig& cfg)
    : cfg_(cfg),
      pht_(cfg.pht_entries, 1),  // weakly not-taken
      btb_tag_(cfg.btb_entries, 0),
      btb_target_(cfg.btb_entries, 0),
      ras_(cfg.ras_entries, 0) {}

std::size_t BranchPredictor::pht_index(std::uint64_t pc) const {
  const std::uint64_t hist = ghist_ & util::mask(cfg_.ghist_bits);
  return static_cast<std::size_t>(((pc >> 2) ^ hist) % pht_.size());
}

std::size_t BranchPredictor::btb_index(std::uint64_t pc) const {
  return static_cast<std::size_t>((pc >> 2) % btb_tag_.size());
}

Prediction BranchPredictor::predict_branch(std::uint64_t pc) const {
  Prediction p;
  p.taken = pht_[pht_index(pc)] >= 2;
  const std::size_t bi = btb_index(pc);
  p.btb_hit = btb_tag_[bi] == pc;
  p.target = p.btb_hit ? btb_target_[bi] : 0;
  return p;
}

Prediction BranchPredictor::predict_indirect(std::uint64_t pc) const {
  Prediction p;
  const std::size_t bi = btb_index(pc);
  p.btb_hit = btb_tag_[bi] == pc;
  p.taken = p.btb_hit;
  p.target = p.btb_hit ? btb_target_[bi] : 0;
  return p;
}

void BranchPredictor::update_branch(std::uint64_t pc, bool taken,
                                    std::uint64_t target) {
  const std::size_t pi = pht_index(pc);
  std::uint8_t& ctr = pht_[pi];
  if (taken && ctr < 3) ++ctr;
  if (!taken && ctr > 0) --ctr;
  if (taken) {
    const std::size_t bi = btb_index(pc);
    btb_tag_[bi] = pc;
    btb_target_[bi] = target;
    if (dirty_ != nullptr) {
      dirty_->mark(btb_base_ + 2 * bi);
      dirty_->mark(btb_base_ + 2 * bi + 1);
    }
  }
  ghist_ = ((ghist_ << 1) | (taken ? 1 : 0)) & util::mask(cfg_.ghist_bits);
  if (dirty_ != nullptr) {
    dirty_->mark(ghist_id_);
    dirty_->mark(pht_base_ + pi / 32);  // 32 packed counters per word
  }
}

void BranchPredictor::update_indirect(std::uint64_t pc, std::uint64_t target) {
  const std::size_t bi = btb_index(pc);
  btb_tag_[bi] = pc;
  btb_target_[bi] = target;
  if (dirty_ != nullptr) {
    dirty_->mark(btb_base_ + 2 * bi);
    dirty_->mark(btb_base_ + 2 * bi + 1);
  }
}

void BranchPredictor::ras_push(std::uint64_t return_pc) {
  if (ras_top_ < ras_.size()) {
    if (dirty_ != nullptr) {
      dirty_->mark(ras_base_ + ras_top_);
      dirty_->mark(ras_top_id_);
    }
    ras_[ras_top_++] = return_pc;
  } else {
    // Overflow: shift (oldest entry lost), stack stays full.
    for (std::size_t i = 1; i < ras_.size(); ++i) ras_[i - 1] = ras_[i];
    ras_.back() = return_pc;
    if (dirty_ != nullptr) dirty_->mark_range(ras_base_, ras_.size());
  }
}

std::uint64_t BranchPredictor::ras_pop() {
  if (ras_top_ == 0) return 0;
  if (dirty_ != nullptr) dirty_->mark(ras_top_id_);
  return ras_[--ras_top_];
}

}  // namespace specure::sim
