// Coverage Calculator — §3.2: the novel Leakage Path (LP) coverage metric.
//
// LP coverage counts, per PDLC, whether the channel's signals toggled
// inside a speculative window — guiding the fuzzer toward inputs that
// exercise potential leakage channels *while speculating*, instead of
// generic code coverage. Two covering policies are provided (DESIGN.md
// D1): kAllSignals (every signal on the witness path toggled within one
// window) and kEndpoints (source and sink toggled within one window).
//
// The probe runs on every window of every iteration, so the constructor
// builds a channel index once. Each channel gets a bitmask of its path
// signals (one bit per SignalDb id) and is filed under one *anchor*: its
// path signal shared by the fewest channels. Per window, the probe walks
// only the buckets of the signals that changed and tests each channel
// there with a word-wise subset check. That is exact, not a filter: a
// channel is hit iff all its signals changed in one window, and then its
// anchor changed too, so its bucket was visited. A channel with no signal
// in the SignalDb has no anchor and is never hit.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mst.hpp"
#include "ift/pdlc.hpp"
#include "snapshot/snapshot.hpp"
#include "util/atomic_bitset.hpp"

namespace specure::core {

enum class LpPolicy : std::uint8_t { kAllSignals, kEndpoints };

class LpCoverageMap {
 public:
  LpCoverageMap(const ift::Ifg& ifg, const ift::PdlcList& pdlc,
                const snapshot::SignalDb& db,
                LpPolicy policy = LpPolicy::kAllSignals);

  /// Account one run: commit(probe(trace, windows)). Returns the number
  /// of *newly* covered channels.
  std::size_t update(const snapshot::Trace& trace,
                     const std::vector<SpecWindow>& windows) {
    return commit(probe(trace, windows));
  }

  /// Thread-safe half of update(): the channels this run exercised (all
  /// path signals toggled inside one speculative window), ascending.
  /// Workers call probe() concurrently on their own run data; the
  /// single-threaded merger then applies the hits with commit().
  /// `already_covered`, when given, is the merger's atomic covered shadow:
  /// channels set there are skipped, so worker cost falls as coverage
  /// saturates. The shadow may be concurrently updated by the merger
  /// (pipelined executor) — a stale read just re-probes a channel
  /// commit() filters idempotently, so results never depend on the
  /// interleaving. Also usable with the out-param overload to reuse the
  /// hit vector's capacity.
  std::vector<std::size_t> probe(
      const snapshot::Trace& trace,
      const std::vector<SpecWindow>& windows,
      const util::AtomicBitset* already_covered = nullptr) const;
  void probe(const snapshot::Trace& trace,
             const std::vector<SpecWindow>& windows,
             const util::AtomicBitset* already_covered,
             std::vector<std::size_t>& out) const;

  /// Mark probed channels covered; returns the number newly covered.
  /// Idempotent: already-covered channels count zero.
  std::size_t commit(const std::vector<std::size_t>& channels);

  std::size_t covered() const { return covered_count_; }
  const std::vector<bool>& covered_mask() const { return covered_; }

  /// Overwrite the covered set from a previously saved covered_mask()
  /// (campaign state restore). The mask must come from the same channel
  /// universe — i.e. a map built from the same offline result and policy.
  void restore_covered(const std::vector<bool>& mask) {
    if (mask.size() != covered_.size()) {
      throw std::logic_error("LP coverage restore: mask has " +
                             std::to_string(mask.size()) +
                             " channels, the map has " +
                             std::to_string(covered_.size()));
    }
    covered_ = mask;
    covered_count_ = 0;
    for (const bool c : covered_) covered_count_ += c;
  }
  std::size_t total() const { return covered_.size(); }
  bool is_covered(std::size_t channel) const { return covered_[channel]; }

 private:
  std::span<const std::uint64_t> mask_of(std::size_t channel) const {
    return {channel_masks_.data() + channel * words_, words_};
  }

  /// Words per signal bitmask: ceil(SignalDb size / 64).
  std::size_t words_ = 0;
  /// Channel c's path-signal bitmask (policy-dependent) lives at
  /// [c * words_, (c + 1) * words_).
  std::vector<std::uint64_t> channel_masks_;
  /// Anchor buckets, CSR layout: the channels anchored on signal s are
  /// anchored_[bucket_begin_[s] .. bucket_begin_[s + 1]), ascending.
  std::vector<std::uint32_t> bucket_begin_;
  std::vector<std::uint32_t> anchored_;
  std::vector<bool> covered_;
  std::size_t covered_count_ = 0;
};

}  // namespace specure::core
