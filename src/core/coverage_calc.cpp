#include "core/coverage_calc.hpp"

#include <limits>

#include "util/bits.hpp"

namespace specure::core {

LpCoverageMap::LpCoverageMap(const ift::Ifg& ifg, const ift::PdlcList& pdlc,
                             const snapshot::SignalDb& db, LpPolicy policy)
    : words_((db.size() + 63) / 64), covered_(pdlc.size(), false) {
  // Path-signal bitmask per channel.
  channel_masks_.assign(pdlc.size() * words_, 0);
  std::uint64_t* mask = channel_masks_.data();
  for (const auto& ch : pdlc.channels()) {
    auto add = [mask, &ifg, &db](ift::NodeId n) {
      const snapshot::SignalId sid = db.find(ifg.node(n).name);
      if (sid != snapshot::kInvalidSignal) {
        mask[sid / 64] |= std::uint64_t{1} << (sid % 64);
      }
    };
    if (policy == LpPolicy::kEndpoints) {
      add(ch.source);
      add(ch.sink);
    } else {
      for (ift::NodeId n : ch.path) add(n);
    }
    mask += words_;
  }

  // Anchor each channel on its least-shared signal (lowest id on ties).
  std::vector<std::uint32_t> shared(db.size(), 0);
  for (std::size_t c = 0; c < covered_.size(); ++c) {
    util::for_each_set_bit(mask_of(c),
                           [&shared](std::size_t sid) { ++shared[sid]; });
  }
  constexpr auto kNoAnchor = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> anchor(covered_.size(), kNoAnchor);
  bucket_begin_.assign(db.size() + 1, 0);
  for (std::size_t c = 0; c < covered_.size(); ++c) {
    util::for_each_set_bit(mask_of(c), [&](std::size_t sid) {
      if (anchor[c] == kNoAnchor || shared[sid] < shared[anchor[c]]) {
        anchor[c] = static_cast<std::uint32_t>(sid);
      }
    });
    if (anchor[c] != kNoAnchor) ++bucket_begin_[anchor[c] + 1];
  }
  for (std::size_t s = 0; s < db.size(); ++s) {
    bucket_begin_[s + 1] += bucket_begin_[s];
  }
  // Counting sort by anchor; ascending c keeps every bucket ascending.
  anchored_.resize(bucket_begin_.back());
  std::vector<std::uint32_t> fill(bucket_begin_.begin(),
                                  bucket_begin_.end() - 1);
  for (std::size_t c = 0; c < covered_.size(); ++c) {
    if (anchor[c] != kNoAnchor) {
      anchored_[fill[anchor[c]]++] = static_cast<std::uint32_t>(c);
    }
  }
}

std::vector<std::size_t> LpCoverageMap::probe(
    const snapshot::Trace& trace,
    const std::vector<SpecWindow>& windows,
    const util::AtomicBitset* already_covered) const {
  std::vector<std::size_t> out;
  probe(trace, windows, already_covered, out);
  return out;
}

void LpCoverageMap::probe(const snapshot::Trace& trace,
                          const std::vector<SpecWindow>& windows,
                          const util::AtomicBitset* already_covered,
                          std::vector<std::size_t>& out) const {
  out.clear();
  std::vector<std::uint64_t> hit((covered_.size() + 63) / 64, 0);
  std::vector<std::uint64_t> changed;
  for (const auto& w : windows) {
    // The paper counts PDLC signal toggles inside the speculative window.
    trace.changed_words(w.start_cycle, w.end_cycle, changed);
    util::for_each_set_bit(changed, [&](std::size_t sid) {
      for (std::uint32_t i = bucket_begin_[sid]; i < bucket_begin_[sid + 1];
           ++i) {
        const std::uint32_t c = anchored_[i];
        const std::uint64_t bit = std::uint64_t{1} << (c % 64);
        if (hit[c / 64] & bit) continue;
        if (already_covered && already_covered->test(c)) continue;
        const auto mask = mask_of(c);
        bool all = true;
        for (std::size_t k = 0; k < words_; ++k) {
          if (mask[k] & ~changed[k]) {
            all = false;
            break;
          }
        }
        if (all) hit[c / 64] |= bit;
      }
    });
  }
  util::for_each_set_bit(hit, [&out](std::size_t c) { out.push_back(c); });
}

std::size_t LpCoverageMap::commit(const std::vector<std::size_t>& channels) {
  std::size_t fresh = 0;
  for (const std::size_t c : channels) {
    if (!covered_[c]) {
      covered_[c] = true;
      ++covered_count_;
      ++fresh;
    }
  }
  return fresh;
}

}  // namespace specure::core
