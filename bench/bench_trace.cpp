// Trace-layer micro-bench: dense reference recorder vs the delta-native
// trace on the default MiniBOOM preset. Reports per-run trace memory
// (dense vs delta, the ≥5× headline), recording+analysis throughput on
// both paths, and the leakage detector's per-run window pass — the
// numbers quoted in docs/ARCHITECTURE.md.
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/coverage_calc.hpp"
#include "core/leakage.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "riscv/program.hpp"
#include "sim/core.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace specure;
  using clock = std::chrono::steady_clock;

  bench::BenchJson json(argc, argv, "trace");
  bench::header("Trace layer: dense reference vs delta-native");

  const std::size_t kPrograms = 24;
  const std::size_t kProgramLen = 96;
  std::vector<riscv::Program> programs;
  {
    util::Rng rng(17);
    for (std::size_t i = 0; i < kPrograms; ++i) {
      programs.push_back(riscv::random_program(rng, kProgramLen));
    }
  }
  const core::OfflineResult off = core::run_offline_phase(sim::CoreConfig{});

  // ---- memory: one dual-recorded pass ------------------------------------
  sim::CoreConfig dual_cfg;
  dual_cfg.record_dense_trace = true;
  sim::Simulator dual_sim(dual_cfg);
  std::size_t dense_bytes = 0, delta_bytes = 0, cycles = 0, events = 0;
  for (const auto& p : programs) {
    const sim::RunResult run = dual_sim.run(p);
    dense_bytes += run.dense_trace->memory_bytes();
    delta_bytes += run.trace.memory_bytes();
    cycles += run.trace.size();
    events += run.trace.event_count();
  }
  std::printf("  %-26s %zu signals, %zu cycles, %zu change events\n",
              "workload:", dual_sim.signal_db().size(), cycles, events);
  std::printf("  %-26s %10.1f KiB  (%.1f bytes/cycle)\n",
              "dense trace memory:", dense_bytes / 1024.0,
              static_cast<double>(dense_bytes) / cycles);
  std::printf("  %-26s %10.1f KiB  (%.1f bytes/cycle)\n",
              "delta trace memory:", delta_bytes / 1024.0,
              static_cast<double>(delta_bytes) / cycles);
  const double ratio = static_cast<double>(dense_bytes) / delta_bytes;
  std::printf("  %-26s %10.1fx\n", "memory reduction:", ratio);
  json.metric("dense_bytes_per_cycle", static_cast<double>(dense_bytes) / cycles);
  json.metric("delta_bytes_per_cycle", static_cast<double>(delta_bytes) / cycles);
  json.metric("memory_reduction", ratio);

  // ---- throughput: simulate + full detector pass on each path ------------
  // The dense path adds the pre-delta pipeline's costs: full snapshot
  // capture plus O(cycles × signals) window queries. Both paths then run
  // the LP probe on the delta trace; the delta path is what campaigns run
  // today.
  const auto bench_pass = [&](bool dense_path) {
    sim::CoreConfig cfg;
    cfg.record_dense_trace = dense_path;
    sim::Simulator sim(cfg);
    core::LpCoverageMap lp(off.ifg, off.pdlc, sim.signal_db());
    const auto t0 = clock::now();
    std::size_t total_windows = 0, dense_changed = 0;
    for (const auto& p : programs) {
      const sim::RunResult run = sim.run(p);
      const auto windows = core::extract_mst(run.trace);
      total_windows += windows.size();
      if (dense_path) {
        // The pre-delta pipeline's O(cycles × signals) window queries.
        for (const auto& w : windows) {
          dense_changed +=
              run.dense_trace->changed_mask(w.start_cycle, w.end_cycle)
                  .size();
        }
      }
      lp.update(run.trace, windows);
    }
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (dense_changed == 1) std::printf(" ");  // keep the queries observable
    return std::pair<double, std::size_t>(s, total_windows);
  };
  bench_pass(false);  // warm-up (page cache, allocator)
  const auto [dense_s, dense_w] = bench_pass(true);
  const auto [delta_s, delta_w] = bench_pass(false);
  if (dense_w != delta_w) {
    std::printf("  !! window count diverged: %zu vs %zu\n", dense_w, delta_w);
    return 1;
  }
  std::printf("  %-26s %10.1f runs/sec\n", "dense pipeline:",
              programs.size() / dense_s);
  std::printf("  %-26s %10.1f runs/sec  (%.2fx)\n", "delta pipeline:",
              programs.size() / delta_s, dense_s / delta_s);
  json.metric("dense_runs_per_sec", programs.size() / dense_s);
  json.metric("delta_runs_per_sec", programs.size() / delta_s);

  // ---- leakage detector: one forward pass per run -----------------------
  {
    sim::Simulator sim{sim::CoreConfig{}};
    std::vector<sim::RunResult> runs;
    std::vector<std::vector<core::SpecWindow>> windows;
    std::size_t analyzed = 0;
    for (const auto& p : programs) {
      runs.push_back(sim.run(p));
      windows.push_back(core::extract_mst(runs.back().trace));
      for (const auto& w : windows.back()) analyzed += w.mispredicted;
    }
    const auto tainted = sim.signal_db().id_of("core.lsu.tainted_access");
    constexpr std::size_t kPasses = 50;
    std::size_t sink = 0;
    const auto t0 = clock::now();
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < runs.size(); ++i) {
        sink += core::detect_leakage(runs[i].trace, windows[i], tainted).size();
      }
    }
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    const double us_per_run = 1e6 * s / (kPasses * runs.size());
    std::printf("  %-26s %10.2f us/run  (%.1f misspeculated windows/run)\n",
                "detect_leakage pass:", us_per_run,
                static_cast<double>(analyzed) / runs.size());
    json.metric("detect_leakage_us_per_run", us_per_run);
    if (sink == 0x12345678) std::printf(" ");  // keep the loop observable
  }
  json.metric("peak_rss_kib", static_cast<double>(bench::peak_rss_kib()));

  if (ratio < 5.0) {
    std::printf("  !! memory reduction below the 5x acceptance floor\n");
    return 1;
  }
  bench::note("dense path = pre-delta pipeline (full per-cycle snapshots + "
              "dense window queries)");
  return 0;
}
