#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/bits.hpp"

namespace specure::snapshot {

std::vector<SignalDelta> diff(const Snapshot& a, const Snapshot& b) {
  if (a.values.size() != b.values.size()) {
    throw std::runtime_error("snapshot diff: mismatched schemas");
  }
  std::vector<SignalDelta> out;
  for (SignalId i = 0; i < a.values.size(); ++i) {
    if (a.values[i] != b.values[i]) {
      out.push_back({i, a.values[i], b.values[i]});
    }
  }
  return out;
}

std::uint64_t toggle_count(const Snapshot& a, const Snapshot& b) {
  if (a.values.size() != b.values.size()) {
    throw std::runtime_error("snapshot toggle_count: mismatched schemas");
  }
  std::uint64_t total = 0;
  for (SignalId i = 0; i < a.values.size(); ++i) {
    total += util::toggled_bits(a.values[i], b.values[i]);
  }
  return total;
}

// ------------------------------------------------------------------ Trace --

void Trace::begin_cycle(std::uint64_t cycle) {
  if (!cycles_.empty() && cycle <= cycles_.back()) {
    throw std::runtime_error(
        "trace: cycles must be strictly increasing (got " +
        std::to_string(cycle) + " after " + std::to_string(cycles_.back()) +
        ")");
  }
  if (live_.empty()) live_.assign(db_->size(), 0);
  cycles_.push_back(cycle);
  offsets_.push_back(event_ids_.size());
}

unsigned Trace::record(SignalId id, std::uint64_t value) {
  if (cycles_.empty()) {
    throw std::runtime_error("trace: record() before begin_cycle()");
  }
  if (id >= live_.size()) {
    throw std::runtime_error("trace: signal id " + std::to_string(id) +
                             " outside the schema (" +
                             std::to_string(live_.size()) + " signals)");
  }
  const std::size_t tick_start = offsets_.back();
  if (event_ids_.size() > tick_start && id <= event_ids_.back()) {
    throw std::runtime_error(
        "trace: record() ids must be strictly ascending within a tick");
  }
  const std::uint64_t prev = live_[id];
  if (value == prev) return 0;
  event_ids_.push_back(id);
  event_values_.push_back(value);
  live_[id] = value;
  return util::toggled_bits(prev, value);
}

void Trace::push(const Snapshot& snap) {
  if (snap.values.size() != db_->size()) {
    throw std::runtime_error("trace push: snapshot has " +
                             std::to_string(snap.values.size()) +
                             " values, schema has " +
                             std::to_string(db_->size()));
  }
  begin_cycle(snap.cycle);
  for (SignalId i = 0; i < snap.values.size(); ++i) record(i, snap.values[i]);
}

void Trace::reset() {
  cycles_.clear();
  offsets_.clear();
  event_ids_.clear();
  event_values_.clear();
  live_.clear();
}

std::size_t Trace::memory_bytes() const {
  std::size_t bytes = 0;
  bytes += event_ids_.size() * sizeof(SignalId);
  bytes += event_values_.size() * sizeof(std::uint64_t);
  bytes += cycles_.size() * sizeof(std::uint64_t);
  bytes += offsets_.size() * sizeof(std::size_t);
  bytes += live_.size() * sizeof(std::uint64_t);
  return bytes;
}

std::size_t Trace::index_of(std::uint64_t cycle) const {
  const auto it = std::lower_bound(cycles_.begin(), cycles_.end(), cycle);
  if (it == cycles_.end() || *it != cycle) {
    std::string msg = "trace: no snapshot for cycle " + std::to_string(cycle);
    if (cycles_.empty()) {
      msg += " (trace is empty)";
    } else {
      msg += " (trace covers cycles " + std::to_string(cycles_.front()) +
             ".." + std::to_string(cycles_.back()) + ")";
    }
    throw std::runtime_error(msg);
  }
  return static_cast<std::size_t>(it - cycles_.begin());
}

void Trace::materialize(std::size_t index,
                        std::vector<std::uint64_t>& out) const {
  if (index + 1 == cycles_.size()) {  // the common "last tick" fast path
    out = live_;
    return;
  }
  out.assign(db_->size(), 0);
  for (std::size_t e = 0; e < tick_end(index); ++e) {
    out[event_ids_[e]] = event_values_[e];
  }
}

Snapshot Trace::at_cycle(std::uint64_t cycle) const {
  const std::size_t index = index_of(cycle);
  Snapshot snap;
  snap.cycle = cycle;
  materialize(index, snap.values);
  return snap;
}

Snapshot Trace::operator[](std::size_t index) const {
  Snapshot snap;
  snap.cycle = cycles_[index];
  materialize(index, snap.values);
  return snap;
}

std::pair<std::size_t, std::size_t> Trace::window_ticks(
    std::uint64_t from, std::uint64_t to) const {
  const auto lo = std::upper_bound(cycles_.begin(), cycles_.end(), from);
  const auto hi = std::upper_bound(cycles_.begin(), cycles_.end(), to);
  const auto first = static_cast<std::size_t>(lo - cycles_.begin());
  const auto end = static_cast<std::size_t>(hi - cycles_.begin());
  return {first == 0 ? 1 : first, end};
}

void Trace::changed_words(std::uint64_t from, std::uint64_t to,
                          std::vector<std::uint64_t>& out) const {
  out.assign((db_->size() + 63) / 64, 0);
  const auto [first, end] = window_ticks(from, to);
  for (std::size_t tick = first; tick < end; ++tick) {
    for (std::size_t e = tick_begin(tick); e < tick_end(tick); ++e) {
      const SignalId id = event_ids_[e];
      out[id / 64] |= std::uint64_t{1} << (id % 64);
    }
  }
}

// ------------------------------------------------------------- DenseTrace --

const Snapshot& DenseTrace::at_cycle(std::uint64_t cycle) const {
  std::size_t lo = 0, hi = snaps_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (snaps_[mid].cycle < cycle) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= snaps_.size() || snaps_[lo].cycle != cycle) {
    throw std::runtime_error("dense trace: no snapshot for cycle " +
                             std::to_string(cycle));
  }
  return snaps_[lo];
}

std::vector<bool> DenseTrace::changed_mask(std::uint64_t from,
                                           std::uint64_t to) const {
  std::vector<bool> mask(db_->size(), false);
  for (std::size_t i = 1; i < snaps_.size(); ++i) {
    const std::uint64_t c = snaps_[i].cycle;
    if (c <= from || c > to) continue;  // transitions inside (from, to]
    const auto& prev = snaps_[i - 1].values;
    const auto& cur = snaps_[i].values;
    for (SignalId s = 0; s < mask.size(); ++s) {
      if (prev[s] != cur[s]) mask[s] = true;
    }
  }
  return mask;
}

std::size_t DenseTrace::memory_bytes() const {
  std::size_t bytes = 0;
  for (const auto& s : snaps_) {
    bytes += sizeof(Snapshot) + s.values.size() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace specure::snapshot
