#include "core/leakage.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace specure::core {
namespace {

std::string span(const SpecWindow& w) {
  return "[" + std::to_string(w.start_cycle) + ", " +
         std::to_string(w.end_cycle) + "]";
}

[[noreturn]] void missing_cycle(const SpecWindow& w, std::uint64_t cycle) {
  throw std::runtime_error("detect_leakage: window " + span(w) +
                           " needs cycle " + std::to_string(cycle) +
                           ", which the trace did not record");
}

}  // namespace

std::vector<WindowLeakage> detect_leakage(
    const snapshot::Trace& trace, const std::vector<SpecWindow>& windows,
    snapshot::SignalId pulse) {
  std::vector<WindowLeakage> out;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const SpecWindow& w = windows[i];
    if (w.end_cycle < w.start_cycle) {
      throw std::invalid_argument("detect_leakage: window " + span(w) +
                                  " ends before it starts");
    }
    if (i > 0 && w.start_cycle < windows[i - 1].end_cycle) {
      throw std::invalid_argument(
          "detect_leakage: window " + span(w) + " starts before window " +
          span(windows[i - 1]) + " ends (windows must be ascending and "
          "disjoint)");
    }
    if (w.mispredicted) out.push_back({w, {}, false});
  }
  if (out.empty()) return out;

  // One walk over the events. `live` holds the values after the current
  // tick. Inside an open window, a signal's first event records its value
  // at the window start in `before`; at the window's end tick the touched
  // signals whose value differs are its deltas.
  const std::size_t n = trace.db().size();
  std::vector<std::uint64_t> live(n, 0);
  std::vector<std::uint64_t> before(n, 0);
  std::vector<bool> touched(n, false);
  std::vector<snapshot::SignalId> touched_ids;
  std::size_t next = 0;  // first window not yet closed
  bool open = false;     // out[next] is past its start tick
  for (std::size_t t = 0; t < trace.size() && next < out.size(); ++t) {
    const std::uint64_t c = trace.cycle_at(t);
    for (std::size_t e = trace.tick_begin(t); e < trace.tick_end(t); ++e) {
      const snapshot::SignalId id = trace.event_id(e);
      if (open && !touched[id]) {
        touched[id] = true;
        touched_ids.push_back(id);
        before[id] = live[id];
      }
      live[id] = trace.event_value(e);
    }
    if (open && pulse != snapshot::kInvalidSignal && live[pulse] != 0) {
      out[next].pulse = true;
    }
    // Open and close every window whose boundary is this tick; a window
    // may start where the previous one ended, or end where it starts.
    while (next < out.size()) {
      WindowLeakage& leak = out[next];
      if (!open) {
        if (c < leak.window.start_cycle) break;
        if (c > leak.window.start_cycle) {
          missing_cycle(leak.window, leak.window.start_cycle);
        }
        open = true;
      }
      if (c < leak.window.end_cycle) break;
      if (c > leak.window.end_cycle) {
        missing_cycle(leak.window, leak.window.end_cycle);
      }
      std::sort(touched_ids.begin(), touched_ids.end());
      for (const snapshot::SignalId id : touched_ids) {
        if (before[id] != live[id]) {
          leak.deltas.push_back({id, before[id], live[id]});
        }
        touched[id] = false;
      }
      touched_ids.clear();
      open = false;
      ++next;
    }
  }
  if (next < out.size()) {
    const SpecWindow& w = out[next].window;
    missing_cycle(w, open ? w.end_cycle : w.start_cycle);
  }
  return out;
}

}  // namespace specure::core
