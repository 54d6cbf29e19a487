// Structural leakage signatures — the triage layer's dedup axis.
//
// The coarse finding_key (kind + sink) collapses findings that leak into
// the same architectural register through entirely different mechanisms:
// two windows with disjoint taint paths dedup to one report. A
// LeakSignature captures the *shape* of a leak instead:
//
//   - kind and sink signal (the coarse key, kept as a prefix),
//   - the misspeculation shape (opener class, misprediction),
//   - the taint path through the IFT graph (witness path length and the
//     set of root-cause source *structures*),
//   - the window's diff mask — the *unexplained* architectural deltas
//     the leakage pass (core::detect_leakage) found across the window,
//     with cycle offsets normalized out (only which signals leaked, never
//     when or what value).
//
// Everything value- and position-dependent (leaked data, absolute
// cycles, window length, the program's address, per-entry structure
// indices like the cache line in core.dcache.tag_0_1) is deliberately
// excluded or normalized away: the minimizer keeps a reduction only if
// the signature reproduces, so the signature must be invariant under
// deleting leak-irrelevant instructions — which shifts addresses, cache
// lines and speculation-window extents without changing the mechanism.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/vuln_detect.hpp"

namespace specure::triage {

struct LeakSignature {
  std::string coarse;                      ///< finding_key(report) prefix
  std::string kind;                        ///< vuln_kind_name
  std::string sink;                        ///< leaked-to signal
  std::string shape;                       ///< "conditional"/"indirect" [+":pred"]
  std::size_t taint_path_len = 0;          ///< shortest witness path, 0 = none
  /// Sorted root-cause source structures (entry indices normalized:
  /// core.dcache.tag_0_1 -> core.dcache.tag).
  std::vector<std::string> taint_sources;
  /// Sorted unexplained architectural deltas across the window, indices
  /// normalized the same way.
  std::vector<std::string> diff_mask;

  /// Canonical string rendering. Starts with finding_key(report) so
  /// substring matching against the coarse key keeps working in stop
  /// conditions and bench helpers.
  std::string key() const;

  /// Short stable digest of key() (FNV-1a, 16 hex chars) used in repro
  /// bundle directory names.
  std::string digest() const;
};

/// Digest of an already-rendered signature key (for callers that only
/// carry the string, e.g. triage of a parsed JSON report).
std::string signature_digest(const std::string& key);

/// Strip per-entry structure indices from a signal name:
/// "core.dcache.tag_0_1" -> "core.dcache.tag". Which *structure* a leak
/// flows through identifies the mechanism; which entry it lands in is an
/// addressing accident.
std::string normalize_structure(std::string name);

/// Build the signature for one report. `unexplained_mask` is the window's
/// full set of unexplained architectural delta signal names (the report's
/// own sink plus its siblings), as collected by the detector.
LeakSignature compute_signature(const core::VulnReport& report,
                                std::vector<std::string> unexplained_mask);

}  // namespace specure::triage
