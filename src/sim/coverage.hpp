// Traditional code-coverage instrumentation for the PUT: branch, FSM and
// condition coverage points plus the toggle coverage derived from
// snapshots. This is the feedback signal of the *baseline* fuzzer the
// paper compares against (TheHuzz-style "FSM, toggle, branch, condition"
// coverage, §4.2), and also part of the Microarchitecture Visualizer's
// outputs.
//
// The point universe is fixed at compile time: each instrumented RTL site
// is a CovSite with exactly two outcomes, and point 2 * site + outcome is
// one bit of a 64-bit mask. Recording, merging and copying are word
// operations; the point names ("b:<site>:t|n", "f:<machine>:<state>",
// "c:<site>:1|0") exist only in points() and restore(), the report and
// state-file forms.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace specure::sim {

// Instrumented RTL sites; the kCovSites row of the same index names each.
enum class CovSite : std::uint8_t {
  // branch sites: "b:<site>:n" / "b:<site>:t"
  kDecodeValid,
  kBpPredTaken,
  kRobResolveMispredict,
  kTlbHit,
  kDcacheHit,
  kLsuStoreMapped,
  // FSM sites (two states): "f:<machine>:0" / "f:<machine>:1"
  kDcacheState,
  // condition sites: "c:<site>:0" / "c:<site>:1"
  kRenameRollbackSuppressed,
  kLsuTaintedSpecAccess,
  kCsrImplemented,

  kCount,
};

struct CovSiteDef {
  char kind;  ///< 'b' branch, 'f' FSM, 'c' condition
  std::string_view name;
};

// clang-format off
inline constexpr CovSiteDef kCovSites[] = {
    {'b', "decode.valid"},
    {'b', "bp.pred_taken"},
    {'b', "rob.resolve_mispredict"},
    {'b', "tlb.hit"},
    {'b', "dcache.hit"},
    {'b', "lsu.store_mapped"},
    {'f', "dcache.state"},
    {'c', "rename.rollback_suppressed"},
    {'c', "lsu.tainted_spec_access"},
    {'c', "csr.implemented"},
};
// clang-format on

static_assert(std::size(kCovSites) == static_cast<std::size_t>(CovSite::kCount),
              "one kCovSites row per CovSite");

/// Accumulates covered points during one simulation run. The point
/// universe is the same for every run, so maps from different runs can be
/// merged to compute campaign coverage.
class CoverageRecorder {
 public:
  static constexpr std::size_t kPoints =
      2 * static_cast<std::size_t>(CovSite::kCount);
  static_assert(kPoints <= 64, "the point mask is one 64-bit word");

  /// Name of point `p` (< kPoints), e.g. "b:tlb.hit:t".
  static const std::string& point_name(std::size_t p);

  /// Record a two-way branch decision at an RTL site.
  void branch(CovSite site, bool taken) {
    assert(def(site).kind == 'b');
    hit(site, taken);
  }

  /// Record a two-state FSM occupying `state` (0 or 1).
  void fsm(CovSite machine, std::uint32_t state) {
    assert(def(machine).kind == 'f' && state < 2);
    hit(machine, state != 0);
  }

  /// Record a boolean condition evaluation (condition coverage).
  void condition(CovSite site, bool value) {
    assert(def(site).kind == 'c');
    hit(site, value);
  }

  /// Record a signal bit-toggle count bucket (toggle coverage summary).
  void toggles(std::uint64_t bits_toggled) { toggle_bits_ += bits_toggled; }

  /// Covered point names, sorted.
  std::vector<std::string> points() const;
  std::uint64_t toggle_bits() const { return toggle_bits_; }

  std::size_t point_count() const { return std::popcount(bits_); }

  /// Merge another run's points into this accumulator. Returns the number
  /// of *new* points contributed (the fuzzer's "is this input interesting"
  /// signal).
  std::size_t merge(const CoverageRecorder& other) {
    const std::uint64_t fresh = other.bits_ & ~bits_;
    bits_ |= fresh;
    toggle_bits_ += other.toggle_bits_;
    return std::popcount(fresh);
  }

  /// Overwrite the accumulator from a saved point list + toggle count
  /// (campaign state restore; order is irrelevant). Throws
  /// std::invalid_argument naming the first point outside the universe.
  void restore(const std::vector<std::string>& points,
               std::uint64_t toggle_bits);

  void clear() {
    bits_ = 0;
    toggle_bits_ = 0;
  }

 private:
  static constexpr const CovSiteDef& def(CovSite site) {
    return kCovSites[static_cast<std::size_t>(site)];
  }
  void hit(CovSite site, bool outcome) {
    bits_ |= std::uint64_t{1} << (2 * static_cast<unsigned>(site) + outcome);
  }

  std::uint64_t bits_ = 0;
  std::uint64_t toggle_bits_ = 0;
};

}  // namespace specure::sim
