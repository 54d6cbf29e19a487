// Leakage Detector — §3.2 Step 2: for each misspeculated window, diff the
// state at the window's start and end. The differing signals are the
// potential information-leakage locations handed to the Vulnerability
// Detector.
#pragma once

#include <vector>

#include "core/mst.hpp"
#include "snapshot/snapshot.hpp"

namespace specure::core {

struct WindowLeakage {
  SpecWindow window;
  /// Signals whose value differs between window start and end — i.e.
  /// state changes that *survived* the rollback. Ascending by id.
  std::vector<snapshot::SignalDelta> deltas;
  /// The detector's pulse signal was non-zero at some recorded cycle in
  /// (start, end] (e.g. core.lsu.tainted_access); false when no pulse
  /// signal was given.
  bool pulse = false;
};

/// Analyze every misspeculated window in the trace in one forward pass
/// over its change events. Correctly-predicted windows are skipped: their
/// younger instructions were real work and the hyper-property only
/// concerns misspeculated execution.
///
/// `windows` must be ascending and disjoint, as extract_mst returns them
/// (a window may start on the cycle the previous one ended); otherwise
/// std::invalid_argument names both windows. Every misspeculated window's
/// start and end must be recorded cycles; otherwise std::runtime_error
/// names the window and the missing cycle.
std::vector<WindowLeakage> detect_leakage(
    const snapshot::Trace& trace, const std::vector<SpecWindow>& windows,
    snapshot::SignalId pulse = snapshot::kInvalidSignal);

}  // namespace specure::core
