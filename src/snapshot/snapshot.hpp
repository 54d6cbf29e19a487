// Delta-native run traces, snapshot materialization and window queries.
// These are the data the Leakage Detector (§3.2) consumes: the diff between
// the microarchitectural state at the start and end of a misspeculated
// window yields the potential information-leakage locations.
//
// The paper's Online Phase is built on diffing per-cycle snapshots, but
// only a handful of signals change per cycle — so Trace records
// (cycle, signal, new_value) change events instead of materializing one
// full value vector per cycle. Memory is O(changes) instead of
// O(cycles × signals). Every consumer walks the events forward: MST
// extraction and the leakage detector (core::detect_leakage) make one pass
// over the whole run, and the LP probe's changed_words walks only the
// events inside one window. Random access (at_cycle, operator[]) replays
// the events from the first tick; only VCD export and tests use it.
//
// DenseTrace is the retained dense reference recorder: one full Snapshot
// per cycle, the pre-delta representation. The simulator can record both
// side by side (CoreConfig::record_dense_trace), which is the oracle the
// trace differential suite replays against.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "snapshot/signal_db.hpp"
#include "util/bits.hpp"

namespace specure::snapshot {

/// State of every registered signal at one clock cycle. Values are aligned
/// with SignalDb ids.
struct Snapshot {
  std::uint64_t cycle = 0;
  std::vector<std::uint64_t> values;

  std::uint64_t operator[](SignalId id) const { return values[id]; }
};

/// One changed signal between two snapshots.
struct SignalDelta {
  SignalId id = kInvalidSignal;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
};

/// All signals whose value differs between `a` and `b` (a is "before").
std::vector<SignalDelta> diff(const Snapshot& a, const Snapshot& b);

/// Number of bit toggles between two snapshots, summed over all signals.
std::uint64_t toggle_count(const Snapshot& a, const Snapshot& b);

/// A delta-native run trace: an ordered stream of per-tick change events
/// against an implicit all-zero pre-reset state.
///
/// Recording (the simulator hot loop):
///   trace.begin_cycle(cycle);
///   for each signal id, ascending:  toggles += trace.record(id, value);
///
/// record() compares against the live previous-value array and appends an
/// event only when the value actually changed, returning the number of
/// toggled bits (the toggle-coverage increment). Ids must be recorded in
/// strictly ascending order within a tick and cycles must be strictly
/// increasing across ticks — both are enforced.
class Trace {
 public:
  explicit Trace(const SignalDb* db) : db_(db) {}

  // ---- recording --------------------------------------------------------
  /// Open a new tick. Cycles must be strictly increasing.
  void begin_cycle(std::uint64_t cycle);

  /// Record one signal's value for the open tick. Appends a change event
  /// iff the value differs from the previous tick's; returns the number of
  /// bits toggled (0 when unchanged). Ids must arrive in strictly
  /// ascending order within a tick.
  unsigned record(SignalId id, std::uint64_t value);

  /// Bulk dirty-set recorder — the core's per-cycle capture loop. Walks
  /// the set bits of `dirty_words` (one bit per signal id, ascending —
  /// which satisfies record()'s ordering contract), evaluates each via
  /// `value_fn(id)`, and records it for the open tick. Signals whose bit is clear are untouched: the
  /// live array keeps their previous value, which is exactly what a full
  /// sweep would have re-recorded (unchanged values append no event), so
  /// a conservative superset dirty set yields a byte-identical event
  /// stream. Returns the summed toggled-bit count.
  template <typename ValueFn>
  std::uint64_t record_dirty(const std::vector<std::uint64_t>& dirty_words,
                             ValueFn&& value_fn) {
    std::uint64_t toggles = 0;
    util::for_each_set_bit(dirty_words, [&](std::size_t id) {
      toggles += record(static_cast<SignalId>(id), value_fn(id));
    });
    return toggles;
  }

  /// Convenience recorder: one whole snapshot (all signals, SignalDb
  /// order). Equivalent to begin_cycle + record per signal.
  void push(const Snapshot& snap);

  /// Drop every recorded tick but keep the allocated column capacity, so
  /// a worker can reuse one Trace across runs without reallocating the
  /// event columns each iteration.
  void reset();

  // ---- shape ------------------------------------------------------------
  std::size_t size() const { return cycles_.size(); }
  bool empty() const { return cycles_.empty(); }
  std::uint64_t cycle_at(std::size_t index) const { return cycles_[index]; }
  const SignalDb& db() const { return *db_; }
  std::size_t event_count() const { return event_ids_.size(); }

  /// Approximate heap footprint of the recorded trace (events, tick index,
  /// live array) — the number the trace bench reports against the dense
  /// O(cycles × signals) representation.
  std::size_t memory_bytes() const;

  // ---- materialization (VCD export, tests) -------------------------------
  /// Full snapshot at a recorded cycle: O(log ticks) to locate the tick,
  /// then a replay of every event up to it (the last tick reads the live
  /// array directly). Throws std::runtime_error naming the cycle and the
  /// covered range when the cycle was never recorded.
  Snapshot at_cycle(std::uint64_t cycle) const;

  /// Full snapshot of the i-th recorded tick (by value — the dense vector
  /// is materialized on demand by the same replay).
  Snapshot operator[](std::size_t index) const;

  // ---- window queries (the Online Phase detectors) -----------------------
  /// Set of signal ids with at least one change at a recorded cycle in
  /// (from, to], as a word bitset in a caller-owned buffer: bit (id % 64)
  /// of out[id / 64]. `out` is resized to ceil(signals / 64) words, so a
  /// reused buffer allocates nothing — this is the per-window query of
  /// the LP probe and the root-cause scan. Cost: O(signals / 64 + events
  /// inside the window).
  void changed_words(std::uint64_t from, std::uint64_t to,
                     std::vector<std::uint64_t>& out) const;

  /// Walk every recorded tick in order, tracking the values of `ids`.
  /// `fn(cycle, tracked)` is called once per tick with tracked[i] holding
  /// the value of ids[i] at that tick. Cost: O(ticks + total events).
  template <typename Fn>
  void scan(const std::vector<SignalId>& ids, Fn&& fn) const {
    std::vector<std::uint32_t> slot(db_->size(), ~0u);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      slot[ids[i]] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint64_t> tracked(ids.size(), 0);
    for (std::size_t t = 0; t < cycles_.size(); ++t) {
      for (std::size_t e = tick_begin(t); e < tick_end(t); ++e) {
        const std::uint32_t s = slot[event_ids_[e]];
        if (s != ~0u) tracked[s] = event_values_[e];
      }
      fn(cycles_[t], tracked);
    }
  }

  // ---- event access (VCD writer, benches) --------------------------------
  std::size_t tick_begin(std::size_t index) const { return offsets_[index]; }
  std::size_t tick_end(std::size_t index) const {
    return index + 1 < offsets_.size() ? offsets_[index + 1]
                                       : event_ids_.size();
  }
  SignalId event_id(std::size_t e) const { return event_ids_[e]; }
  std::uint64_t event_value(std::size_t e) const { return event_values_[e]; }

 private:
  /// Tick indices [first, end) whose events are changes at cycles c with
  /// from < c <= to. The first tick never counts: its events are the
  /// initial values, not transitions.
  std::pair<std::size_t, std::size_t> window_ticks(std::uint64_t from,
                                                   std::uint64_t to) const;
  /// Tick index of a recorded cycle; throws with the covered range when
  /// the cycle was never recorded.
  std::size_t index_of(std::uint64_t cycle) const;
  /// Materialize the values after tick `index` into `out`.
  void materialize(std::size_t index, std::vector<std::uint64_t>& out) const;

  const SignalDb* db_;
  std::vector<std::uint64_t> cycles_;    ///< per tick: cycle stamp
  std::vector<std::size_t> offsets_;     ///< per tick: first event index
  std::vector<SignalId> event_ids_;      ///< columnar change events
  std::vector<std::uint64_t> event_values_;
  /// Values after the last recorded tick — the simulator's previous-value
  /// array that record() detects changes against.
  std::vector<std::uint64_t> live_;
};

/// The dense reference recorder: the snapshot of every simulated cycle in
/// full, the representation the delta trace replaced. Kept as the oracle
/// for the trace differential suite and for dense-vs-delta benchmarking.
class DenseTrace {
 public:
  explicit DenseTrace(const SignalDb* db) : db_(db) {}

  void push(Snapshot snap) { snaps_.push_back(std::move(snap)); }
  std::size_t size() const { return snaps_.size(); }
  bool empty() const { return snaps_.empty(); }
  const Snapshot& at_cycle(std::uint64_t cycle) const;
  const Snapshot& operator[](std::size_t i) const { return snaps_[i]; }
  const SignalDb& db() const { return *db_; }

  /// Trace::changed_words computed the dense way (full per-tick
  /// value-vector comparisons), one bool per signal — the reference the
  /// word query is pinned to.
  std::vector<bool> changed_mask(std::uint64_t from, std::uint64_t to) const;

  std::size_t memory_bytes() const;

 private:
  const SignalDb* db_;
  std::vector<Snapshot> snaps_;
};

}  // namespace specure::snapshot
