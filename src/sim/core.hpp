// MiniBOOM: a cycle-level, speculative, out-of-order-retirement RISC-V
// core — the processor-under-test substitute for BOOM (DESIGN.md §1).
//
// The model is in-order single-issue with delayed branch resolution, which
// yields genuine speculative windows: instructions issued after an
// unresolved branch execute speculatively (loads really access the data
// cache, allocations really happen in the rename stage) and are squashed
// on misprediction by restoring the rename map-table checkpoint. Cache,
// TLB and predictor state deliberately survive squashes (the Spectre
// residue); the (M)WAIT and Zenbleed emulations from the paper's §4.2 are
// switchable via CoreConfig::vuln.
//
// Simulator is the reusable harness: it owns the snapshot schema and runs
// one Program per run() call on a fresh core, producing the per-cycle
// snapshot trace, the commit log, and code coverage — everything the
// Online Phase consumes.
//
// Beyond the cold path, a run can emit Checkpoints (full CoreState plus
// the run-accumulator cursors at that cycle), and run_from() resumes a
// *different* program from a checkpoint of its parent — bit-identical to
// a cold run of that program whenever the mutation's first divergent
// instruction index lies strictly beyond the checkpoint's fetch
// watermark. This is the campaign's prefix-reuse fast path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "riscv/decode.hpp"
#include "riscv/program.hpp"
#include "sim/bpred.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/core_state.hpp"
#include "sim/coverage.hpp"
#include "sim/csr_file.hpp"
#include "sim/memory.hpp"
#include "sim/rename.hpp"
#include "sim/structure.hpp"
#include "sim/tlb.hpp"
#include "snapshot/snapshot.hpp"

namespace specure::sim {

/// One committed (architecturally retired) instruction. The Vulnerability
/// Detector uses this log to discharge architectural-state changes that
/// are explained by bona-fide commits (DESIGN.md D4/D5).
struct CommitRecord {
  std::uint64_t cycle = 0;
  std::uint64_t pc = 0;
  std::uint32_t inst = 0;
  bool writes_rd = false;
  std::uint8_t rd = 0;
  bool writes_csr = false;
  std::uint16_t csr = 0;
  bool is_store = false;
  std::uint64_t store_addr = 0;
};

struct RunResult {
  snapshot::Trace trace;
  /// Dense reference recording of the same run; only populated when
  /// CoreConfig::record_dense_trace is set (trace differential suite).
  std::unique_ptr<snapshot::DenseTrace> dense_trace;
  std::vector<CommitRecord> commits;
  CoverageRecorder coverage;
  std::uint64_t cycles = 0;
  std::uint64_t instructions_committed = 0;
  bool halted_clean = false;  ///< ECALL/EBREAK commit or fall-off-end
  /// Final data-memory image (committed stores applied), for
  /// architectural end-state comparison.
  std::vector<std::uint8_t> final_data;

  explicit RunResult(const snapshot::SignalDb* db) : trace(db) {}

  /// Drop the previous run's contents but keep every allocated buffer
  /// (trace columns, commit log, data image), so one RunResult can be
  /// reused across a worker's iterations without per-run reallocation.
  void reset();
};

/// A resumable mid-run snapshot: the complete core state at the end of
/// one cycle plus the run-accumulator cursors needed to seed the resumed
/// RunResult. The trace and commit-log prefixes are *not* stored here —
/// they are shared with the parent's RunResult and sliced on use
/// (Trace::fork_at / the first `commit_count` commit records), so a set
/// of checkpoints over one run costs one CoreState each, not one trace
/// each.
struct Checkpoint {
  CoreState state;
  std::uint64_t cycle = 0;
  /// CoreState::fetch_watermark at save time; a mutant may resume here
  /// iff its first divergent instruction index is > this.
  std::uint64_t fetch_watermark = 0;
  std::size_t commit_count = 0;  ///< prefix length into the parent commits
  std::uint64_t instructions_committed = 0;
  CoverageRecorder coverage;  ///< copied at save (two words, no heap)

  std::size_t memory_bytes() const;
};

/// Cadence of checkpoint emission during a parent run. Within one
/// fetch-watermark plateau (e.g. a loop spinning below the watermark)
/// only the latest checkpoint is kept; past `max_checkpoints` distinct
/// plateaus, the densest-spaced stored point is thinned so deep, late
/// resume points are still retained under the same bound.
struct CheckpointOptions {
  /// Steady-state cycles between save attempts; the first attempts come
  /// geometrically (8, 16, 32, ...) so early low-watermark states are
  /// not skipped.
  std::uint64_t interval = 64;
  std::size_t max_checkpoints = 32;
};

class Simulator {
 public:
  explicit Simulator(CoreConfig cfg);

  /// Simulate one program on a cold core.
  RunResult run(const riscv::Program& program) const;

  /// Buffer-reusing cold run: `out` is reset (keeping capacity) and
  /// refilled. `out` must have been constructed against a SignalDb with
  /// this simulator's schema.
  void run(const riscv::Program& program, RunResult& out) const;

  /// Cold run that additionally emits resume checkpoints at the given
  /// cadence into `checkpoints` (cleared first). Unsupported (throws)
  /// when record_dense_trace is set.
  void run(const riscv::Program& program, const CheckpointOptions& options,
           std::vector<Checkpoint>& checkpoints, RunResult& out) const;

  /// Resume `program` from a checkpoint taken during a run of its parent
  /// program. `parent_trace` / `parent_commits` are the parent run's full
  /// trace and commit log; their prefixes up to the checkpoint seed
  /// `out`. The caller must have established validity: identical data
  /// images and first divergent code index > checkpoint.fetch_watermark
  /// (see fuzz::first_divergence). The result is then bit-identical to a
  /// cold run of `program`.
  void run_from(const Checkpoint& checkpoint,
                const snapshot::Trace& parent_trace,
                const std::vector<CommitRecord>& parent_commits,
                const riscv::Program& program, RunResult& out) const;

  const snapshot::SignalDb& signal_db() const { return db_; }
  const CoreConfig& config() const { return cfg_; }
  const std::vector<SigDesc>& signal_descs() const { return descs_; }

 private:
  CoreConfig cfg_;
  std::vector<SigDesc> descs_;
  /// Flat-id block offsets of descs_ (validated once at construction) —
  /// what the per-component dirty-set hooks index by.
  SignalLayout layout_;
  snapshot::SignalDb db_;
  /// Per-program decode buffer, reused across runs (capacity persists).
  /// Simulator stays logically const across runs but is NOT safe for
  /// concurrent use from multiple threads — every existing holder
  /// (campaign workers, minimizer probe workers, session/baseline sims)
  /// is thread-private by construction.
  mutable riscv::DecodedProgram decode_scratch_;
};

}  // namespace specure::sim
