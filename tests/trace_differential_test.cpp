// Trace differential suite: replay identical programs through the
// retained dense reference recorder (CoreConfig::record_dense_trace) and
// the delta-native Trace, and assert every query the Online Phase
// detectors use answers identically — materialization, the leakage
// detector's window deltas and pulse flag, toggle coverage, change masks
// — plus VCD byte-equivalence, a golden-file round-trip through the
// reader, and the indexed LP probe against the brute-force channel scan
// it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/coverage_calc.hpp"
#include "core/leakage.hpp"
#include "core/mst.hpp"
#include "core/offline.hpp"
#include "fuzz/seeds.hpp"
#include "riscv/program.hpp"
#include "sim/core.hpp"
#include "snapshot/vcd.hpp"
#include "util/atomic_bitset.hpp"
#include "util/rng.hpp"

namespace specure {
namespace {

// The simulator owns the SignalDb every trace points into, so it must
// outlive the RunResults the tests hold — one shared static instance.
sim::RunResult dual_run(const riscv::Program& program) {
  static sim::Simulator sim = [] {
    sim::CoreConfig cfg;
    cfg.record_dense_trace = true;
    return sim::Simulator(cfg);
  }();
  sim::RunResult run = sim.run(program);
  EXPECT_NE(run.dense_trace, nullptr);
  return run;
}

std::vector<riscv::Program> corpus() {
  std::vector<riscv::Program> programs;
  util::Rng rng(11);
  programs.push_back(fuzz::make_branch_mispredict_seed(rng).program);
  programs.push_back(fuzz::make_bti_seed(rng).program);
  for (int i = 0; i < 3; ++i) {
    programs.push_back(riscv::random_program(rng, 64 + 32 * i));
  }
  return programs;
}

sim::CoreConfig preset_cfg(const std::string& name) {
  sim::CoreConfig cfg;
  EXPECT_TRUE(sim::lookup_core_preset(name, cfg)) << name;
  return cfg;
}

TEST(TraceDifferential, EveryTickMaterializesIdentically) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const snapshot::DenseTrace& dense = *run.dense_trace;
    ASSERT_EQ(run.trace.size(), dense.size());
    // One forward walk tracking every signal yields each tick's full
    // snapshot.
    std::vector<snapshot::SignalId> all(run.trace.db().size());
    std::iota(all.begin(), all.end(), snapshot::SignalId{0});
    std::size_t i = 0;
    run.trace.scan(all, [&](std::uint64_t cycle, const auto& values) {
      ASSERT_EQ(cycle, dense[i].cycle) << "tick " << i;
      ASSERT_EQ(values, dense[i].values) << "tick " << i;
      ++i;
    });
    EXPECT_EQ(i, dense.size());
    // Random access replays the same events: first, middle and last tick.
    for (const std::size_t t : {std::size_t{0}, dense.size() / 2,
                                dense.size() - 1}) {
      EXPECT_EQ(run.trace[t].values, dense[t].values) << "tick " << t;
      EXPECT_EQ(run.trace.at_cycle(dense[t].cycle).values, dense[t].values)
          << "tick " << t;
    }
  }
}

/// The run's MST windows, every one treated as misspeculated so the
/// detector analyzes them all.
std::vector<core::SpecWindow> all_mispredicted(const snapshot::Trace& trace) {
  std::vector<core::SpecWindow> windows = core::extract_mst(trace);
  for (auto& w : windows) w.mispredicted = true;
  return windows;
}

/// Back-to-back windows tiling the whole run: the first opens at the
/// first tick, the last closes at the last tick, and one is empty.
std::vector<core::SpecWindow> edge_windows(const snapshot::Trace& trace) {
  const std::uint64_t first = trace.cycle_at(0);
  const std::uint64_t last = trace.cycle_at(trace.size() - 1);
  const std::uint64_t a = first + (last - first) / 3;
  const std::uint64_t b = first + 2 * (last - first) / 3;
  std::vector<core::SpecWindow> windows;
  for (const auto& [from, to] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {first, a}, {a, b}, {b, b}, {b, last}}) {
    core::SpecWindow w;
    w.start_cycle = from;
    w.end_cycle = to;
    w.mispredicted = true;
    windows.push_back(w);
  }
  return windows;
}

/// detect_leakage against the dense oracle: each window's deltas equal
/// snapshot::diff of the dense snapshots at its start and end, and its
/// pulse flag is set iff the pulse signal is non-zero at a dense tick in
/// (start, end].
void expect_leakage_matches_dense(const sim::RunResult& run,
                                  const std::vector<core::SpecWindow>& windows,
                                  snapshot::SignalId pulse) {
  const snapshot::DenseTrace& dense = *run.dense_trace;
  const auto leaks = core::detect_leakage(run.trace, windows, pulse);
  ASSERT_EQ(leaks.size(), windows.size());
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const core::SpecWindow& w = windows[k];
    SCOPED_TRACE("window [" + std::to_string(w.start_cycle) + ", " +
                 std::to_string(w.end_cycle) + "]");
    EXPECT_EQ(leaks[k].window.start_cycle, w.start_cycle);
    const auto ref = snapshot::diff(dense.at_cycle(w.start_cycle),
                                    dense.at_cycle(w.end_cycle));
    ASSERT_EQ(leaks[k].deltas.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(leaks[k].deltas[i].id, ref[i].id);
      EXPECT_EQ(leaks[k].deltas[i].before, ref[i].before);
      EXPECT_EQ(leaks[k].deltas[i].after, ref[i].after);
    }
    bool ref_pulse = false;
    for (std::size_t t = 0; t < dense.size() && pulse != snapshot::kInvalidSignal;
         ++t) {
      const std::uint64_t c = dense[t].cycle;
      if (c > w.start_cycle && c <= w.end_cycle) {
        ref_pulse |= dense[t].values[pulse] != 0;
      }
    }
    EXPECT_EQ(leaks[k].pulse, ref_pulse);
  }
}

TEST(TraceDifferential, DetectLeakageMatchesDenseOracle) {
  std::size_t windows_checked = 0, deltas_checked = 0, pulses = 0;
  for (const std::string& preset : sim::core_preset_names()) {
    sim::CoreConfig cfg = preset_cfg(preset);
    cfg.record_dense_trace = true;
    const sim::Simulator sim(cfg);
    const snapshot::SignalDb& db = sim.signal_db();
    const snapshot::SignalId tainted = db.id_of("core.lsu.tainted_access");
    const snapshot::SignalId mispred =
        db.id_of("core.rob.brupdate_mispredict");
    for (const auto& program : corpus()) {
      const sim::RunResult run = sim.run(program);
      SCOPED_TRACE(preset);
      for (const auto& windows :
           {all_mispredicted(run.trace), edge_windows(run.trace)}) {
        for (const snapshot::SignalId pulse :
             {tainted, mispred, snapshot::kInvalidSignal}) {
          expect_leakage_matches_dense(run, windows, pulse);
        }
        for (const auto& leak :
             core::detect_leakage(run.trace, windows, mispred)) {
          ++windows_checked;
          deltas_checked += leak.deltas.size();
          pulses += leak.pulse;
        }
      }
    }
  }
  // The corpus must exercise the oracle, not pass vacuously.
  EXPECT_GT(windows_checked, 100u);
  EXPECT_GT(deltas_checked, 0u);
  EXPECT_GT(pulses, 0u);
}

TEST(TraceDifferential, ChangedWordsMatchDenseMask) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const snapshot::DenseTrace& dense = *run.dense_trace;
    const std::uint64_t last = run.trace.cycle_at(run.trace.size() - 1);
    // Windows of several shapes: detector windows, whole trace, clipped
    // and fully out-of-range.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {0, last}, {1, last}, {last / 2, last}, {3, 17}, {last, last + 40}};
    for (const auto& w : core::extract_mst(run.trace)) {
      ranges.emplace_back(w.start_cycle, w.end_cycle);
    }
    std::vector<std::uint64_t> words;
    for (const auto& [from, to] : ranges) {
      const std::vector<bool> mask = dense.changed_mask(from, to);
      run.trace.changed_words(from, to, words);
      for (snapshot::SignalId id = 0; id < mask.size(); ++id) {
        ASSERT_EQ((words[id / 64] >> (id % 64)) & 1, mask[id] ? 1u : 0u)
            << "signal " << id << " window [" << from << ", " << to << "]";
      }
    }
  }
}

TEST(TraceDifferential, ToggleCoverageMatchesDenseRecomputation) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const snapshot::DenseTrace& dense = *run.dense_trace;
    std::uint64_t ref_toggles = 0;
    for (std::size_t i = 1; i < dense.size(); ++i) {
      ref_toggles += snapshot::toggle_count(dense[i - 1], dense[i]);
    }
    EXPECT_EQ(run.coverage.toggle_bits(), ref_toggles);
  }
}

// --- LP probe: anchor index vs brute-force oracle ------------------------
//
// The oracle is the probe as it was before the anchor index: every
// channel against every window, signal by signal, over the dense
// recorder's change mask. The indexed probe on the delta trace must return
// exactly the same hits, in the same ascending order.

/// Per channel, its path's SignalDb ids under `policy` (missing names
/// dropped) — the channel universe the oracle walks.
std::vector<std::vector<snapshot::SignalId>> oracle_channels(
    const ift::Ifg& ifg, const ift::PdlcList& pdlc,
    const snapshot::SignalDb& db, core::LpPolicy policy) {
  std::vector<std::vector<snapshot::SignalId>> out;
  for (const auto& ch : pdlc.channels()) {
    std::vector<snapshot::SignalId> sigs;
    auto push = [&](ift::NodeId n) {
      const snapshot::SignalId sid = db.find(ifg.node(n).name);
      if (sid != snapshot::kInvalidSignal) sigs.push_back(sid);
    };
    if (policy == core::LpPolicy::kEndpoints) {
      push(ch.source);
      push(ch.sink);
    } else {
      for (ift::NodeId n : ch.path) push(n);
    }
    out.push_back(std::move(sigs));
  }
  return out;
}

std::vector<std::size_t> oracle_probe(
    const std::vector<std::vector<snapshot::SignalId>>& channels,
    const std::vector<std::vector<bool>>& window_masks,
    const util::AtomicBitset* shadow) {
  std::vector<bool> hit(channels.size(), false);
  for (const auto& changed : window_masks) {
    for (std::size_t c = 0; c < channels.size(); ++c) {
      if (hit[c] || channels[c].empty()) continue;
      if (shadow && shadow->test(c)) continue;
      bool all = true;
      for (const auto sid : channels[c]) {
        if (!changed[sid]) {
          all = false;
          break;
        }
      }
      if (all) hit[c] = true;
    }
  }
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < hit.size(); ++c) {
    if (hit[c]) out.push_back(c);
  }
  return out;
}

/// The run's MST windows plus the edge shapes: starting at (and, when
/// possible, before) the first recorded tick, empty, and running past the
/// last recorded cycle.
std::vector<core::SpecWindow> probe_windows(const snapshot::Trace& trace) {
  std::vector<core::SpecWindow> windows = core::extract_mst(trace);
  const std::uint64_t first = trace.cycle_at(0);
  const std::uint64_t last = trace.cycle_at(trace.size() - 1);
  auto add = [&windows](std::uint64_t from, std::uint64_t to) {
    core::SpecWindow w;
    w.start_cycle = from;
    w.end_cycle = to;
    windows.push_back(w);
  };
  add(first, first + 24);
  if (first > 0) add(first - 1, first + 1);
  add(last / 2, last / 2);
  add(last - 8, last + 40);
  return windows;
}

TEST(TraceDifferential, LpProbeIndexMatchesBruteForceOracle) {
  const core::OfflineResult off = core::run_offline_phase(sim::CoreConfig{});
  std::size_t oracle_hits = 0;
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    const auto windows = probe_windows(run.trace);
    std::vector<std::vector<bool>> dense_masks;
    for (const auto& w : windows) {
      dense_masks.push_back(
          run.dense_trace->changed_mask(w.start_cycle, w.end_cycle));
    }
    for (const auto policy :
         {core::LpPolicy::kAllSignals, core::LpPolicy::kEndpoints}) {
      const core::LpCoverageMap map(off.ifg, off.pdlc, run.trace.db(), policy);
      const auto channels =
          oracle_channels(off.ifg, off.pdlc, run.trace.db(), policy);
      util::AtomicBitset every_other(channels.size());
      for (std::size_t c = 0; c < channels.size(); c += 2) every_other.set(c);
      const util::AtomicBitset* const shadows[] = {nullptr, &every_other};
      for (const util::AtomicBitset* shadow : shadows) {
        SCOPED_TRACE(std::string(policy == core::LpPolicy::kEndpoints
                                     ? "endpoints"
                                     : "all-signals") +
                     (shadow ? ", shadowed" : ", no shadow"));
        const auto expect = oracle_probe(channels, dense_masks, shadow);
        oracle_hits += expect.size();
        EXPECT_EQ(map.probe(run.trace, windows, shadow), expect);
        // Window by window, so a hit credited to the wrong window shows.
        for (std::size_t i = 0; i < windows.size(); ++i) {
          EXPECT_EQ(map.probe(run.trace, {windows[i]}, shadow),
                    oracle_probe(channels, {dense_masks[i]}, shadow))
              << "window (" << windows[i].start_cycle << ", "
              << windows[i].end_cycle << "]";
        }
      }
    }
  }
  EXPECT_GT(oracle_hits, 0u) << "corpus never covers a channel";
}

TEST(TraceDifferential, LpProbeHandlesSyntheticChannels) {
  const core::OfflineResult off = core::run_offline_phase(sim::CoreConfig{});
  util::Rng rng(11);
  const sim::RunResult run =
      dual_run(fuzz::make_branch_mispredict_seed(rng).program);
  const snapshot::SignalDb& db = run.trace.db();
  const std::uint64_t last = run.trace.cycle_at(run.trace.size() - 1);
  core::SpecWindow whole;
  whole.end_cycle = last;
  const auto dense = run.dense_trace->changed_mask(0, last);
  // Two signals that change over the run and one that never does.
  std::vector<snapshot::SignalId> moving;
  snapshot::SignalId still = snapshot::kInvalidSignal;
  for (snapshot::SignalId id = 0; id < db.size(); ++id) {
    if (dense[id] && moving.size() < 2) moving.push_back(id);
    if (!dense[id] && still == snapshot::kInvalidSignal) still = id;
  }
  ASSERT_EQ(moving.size(), 2u);
  ASSERT_NE(still, snapshot::kInvalidSignal);

  // Appended after the real channels: two whose every node is absent
  // from the SignalDb (never hit), one with a ghost middle node (dropped,
  // so only the endpoints count) and one whose middle signal never
  // changes (hit under kEndpoints only).
  ift::Ifg ifg = off.ifg;
  ift::PdlcList pdlc = off.pdlc;
  auto node = [&ifg, &db](snapshot::SignalId id) {
    const ift::NodeId n = ifg.find(db.info(id).name);
    return n != ift::kInvalidNode ? n : ifg.add_node(db.info(id).name);
  };
  const ift::NodeId src = node(moving[0]);
  const ift::NodeId dst = node(moving[1]);
  const ift::NodeId mid = node(still);
  const ift::NodeId ghost_src = ifg.add_node("ghost.src", 8, true);
  const ift::NodeId ghost_mid = ifg.add_node("ghost.mid");
  const ift::NodeId ghost_dst = ifg.add_node("ghost.dst");
  const std::size_t real = pdlc.size();
  pdlc.add({ghost_src, ghost_dst, {ghost_src, ghost_mid, ghost_dst}});
  pdlc.add({ghost_src, ghost_dst, {ghost_src, ghost_dst}});
  pdlc.add({src, dst, {src, ghost_mid, dst}});
  pdlc.add({src, dst, {src, mid, dst}});

  for (const auto policy :
       {core::LpPolicy::kAllSignals, core::LpPolicy::kEndpoints}) {
    const bool endpoints = policy == core::LpPolicy::kEndpoints;
    SCOPED_TRACE(endpoints ? "endpoints" : "all-signals");
    const core::LpCoverageMap map(ifg, pdlc, db, policy);
    const auto channels = oracle_channels(ifg, pdlc, db, policy);
    ASSERT_TRUE(channels[real].empty());
    ASSERT_TRUE(channels[real + 1].empty());
    const auto hits = map.probe(run.trace, {whole});
    EXPECT_EQ(hits, oracle_probe(channels, {dense}, nullptr));
    auto hit = [&hits](std::size_t c) {
      return std::find(hits.begin(), hits.end(), c) != hits.end();
    };
    EXPECT_FALSE(hit(real));
    EXPECT_FALSE(hit(real + 1));
    EXPECT_TRUE(hit(real + 2));
    EXPECT_EQ(hit(real + 3), endpoints);
  }
}

TEST(TraceDifferential, VcdWritersAreByteIdentical) {
  for (const auto& program : corpus()) {
    const sim::RunResult run = dual_run(program);
    std::ostringstream from_delta, from_dense;
    snapshot::write_vcd(from_delta, run.trace, "miniboom");
    snapshot::write_vcd(from_dense, *run.dense_trace, "miniboom");
    EXPECT_EQ(from_delta.str(), from_dense.str());
  }
}

TEST(TraceDifferential, VcdRoundTripRestoresEveryValue) {
  util::Rng rng(23);
  const sim::RunResult run = dual_run(riscv::random_program(rng, 96));
  std::ostringstream os;
  snapshot::write_vcd(os, run.trace);
  std::istringstream is(os.str());
  const snapshot::VcdData parsed = snapshot::read_vcd(is);

  const snapshot::SignalDb& db = run.trace.db();
  ASSERT_EQ(parsed.names.size(), db.size());
  ASSERT_EQ(parsed.cycles.size(), run.trace.size());
  for (std::size_t t = 0; t < run.trace.size(); ++t) {
    const snapshot::Snapshot& snap = (*run.dense_trace)[t];
    ASSERT_EQ(parsed.cycles[t], snap.cycle);
    for (snapshot::SignalId i = 0; i < db.size(); ++i) {
      const unsigned width = db.info(i).width;
      const std::uint64_t mask =
          width >= 64 ? ~0ULL : ((1ULL << width) - 1);
      ASSERT_EQ(parsed.values[t][i], snap.values[i] & mask)
          << "tick " << t << " signal " << db.info(i).name;
    }
  }
}

TEST(TraceDifferential, WindowVcdMatchesWholeTraceTail) {
  util::Rng rng(29);
  const sim::RunResult run =
      dual_run(fuzz::make_branch_mispredict_seed(rng).program);
  const auto windows = core::extract_mst(run.trace);
  ASSERT_FALSE(windows.empty());
  const auto& w = windows.front();

  std::ostringstream os;
  snapshot::write_vcd_window(os, run.trace, w.start_cycle, w.end_cycle);
  std::istringstream is(os.str());
  const snapshot::VcdData parsed = snapshot::read_vcd(is);

  ASSERT_FALSE(parsed.cycles.empty());
  EXPECT_EQ(parsed.cycles.front(), w.start_cycle);
  EXPECT_EQ(parsed.cycles.back(), w.end_cycle);
  for (std::size_t t = 0; t < parsed.cycles.size(); ++t) {
    const snapshot::Snapshot snap = run.trace.at_cycle(parsed.cycles[t]);
    for (snapshot::SignalId i = 0; i < run.trace.db().size(); ++i) {
      const unsigned width = run.trace.db().info(i).width;
      const std::uint64_t mask =
          width >= 64 ? ~0ULL : ((1ULL << width) - 1);
      ASSERT_EQ(parsed.values[t][i], snap.values[i] & mask);
    }
  }
}

// --- Dirty-set capture sufficiency matrix -------------------------------
//
// The non-dense capture path walks only the signal ids the components
// marked dirty this cycle (Trace::record_dirty); the dense config forces
// the full per-cycle sweep through the very same Trace. A component that
// under-marks — forgets one store-side LRU rotation, one rolled-back
// map-table entry, one TLB fill — makes the two event streams diverge,
// so byte-comparing them proves the dirty set is a superset of every
// actual change (and record()'s no-op on unchanged values makes a
// superset exact).

/// Everything the campaign consumes must be bit-identical: the event
/// stream (via VCD byte-compare, which serializes every change event),
/// toggle coverage, the commit log, and the architectural end state.
void expect_bit_identical(const sim::RunResult& a, const sim::RunResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  std::ostringstream va, vb;
  snapshot::write_vcd(va, a.trace, "miniboom");
  snapshot::write_vcd(vb, b.trace, "miniboom");
  EXPECT_EQ(va.str(), vb.str());
  EXPECT_EQ(a.coverage.toggle_bits(), b.coverage.toggle_bits());
  EXPECT_EQ(a.instructions_committed, b.instructions_committed);
  EXPECT_EQ(a.halted_clean, b.halted_clean);
  EXPECT_EQ(a.final_data, b.final_data);
  ASSERT_EQ(a.commits.size(), b.commits.size());
  for (std::size_t i = 0; i < a.commits.size(); ++i) {
    const auto& x = a.commits[i];
    const auto& y = b.commits[i];
    EXPECT_EQ(x.cycle, y.cycle) << "commit " << i;
    EXPECT_EQ(x.pc, y.pc) << "commit " << i;
    EXPECT_EQ(x.inst, y.inst) << "commit " << i;
    EXPECT_EQ(x.writes_rd, y.writes_rd) << "commit " << i;
    EXPECT_EQ(x.rd, y.rd) << "commit " << i;
    EXPECT_EQ(x.writes_csr, y.writes_csr) << "commit " << i;
    EXPECT_EQ(x.csr, y.csr) << "commit " << i;
    EXPECT_EQ(x.is_store, y.is_store) << "commit " << i;
    EXPECT_EQ(x.store_addr, y.store_addr) << "commit " << i;
  }
}

TEST(TraceDifferential, DirtyCaptureMatchesDenseSweepAcrossConfigs) {
  // Every core preset exercises a different mark surface: mwait drives
  // the CSR timer chain (dcache monitored-line hook), zenbleed the
  // rollback suppression path, no-spec the degenerate pipeline, full
  // everything at once. The corpus covers wrong-path execution and
  // mispredict rollback (branch-mispredict and BTI seeds) plus random
  // programs.
  for (const std::string& preset : sim::core_preset_names()) {
    sim::CoreConfig cfg = preset_cfg(preset);
    sim::Simulator dirty_sim(cfg);
    cfg.record_dense_trace = true;
    sim::Simulator dense_sim(cfg);
    for (const auto& program : corpus()) {
      const sim::RunResult dirty = dirty_sim.run(program);
      const sim::RunResult dense = dense_sim.run(program);
      SCOPED_TRACE(preset);
      expect_bit_identical(dirty, dense);
    }
  }
}

TEST(TraceDifferential, ReusedRunResultMatchesFreshRun) {
  // Campaign workers run every job into one scratch RunResult, keeping
  // the previous run's buffers. Running the corpus forwards and then
  // backwards through one reused RunResult leaves each run on top of a
  // longer and of a shorter predecessor; every run must still equal a
  // fresh one.
  const sim::Simulator s{preset_cfg("full")};
  std::vector<riscv::Program> programs = corpus();
  const std::vector<riscv::Program> forwards = programs;
  programs.insert(programs.end(), forwards.rbegin(), forwards.rend());
  sim::RunResult reused(&s.signal_db());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    s.run(programs[i], reused);
    expect_bit_identical(reused, s.run(programs[i]));
  }
}

TEST(TraceDifferential, DeltaTraceIsAtLeastFiveTimesSmaller) {
  util::Rng rng(31);
  const sim::RunResult run = dual_run(riscv::random_program(rng, 128));
  ASSERT_GT(run.trace.size(), 100u);  // a real run, not a stub
  EXPECT_GE(run.dense_trace->memory_bytes(), 5 * run.trace.memory_bytes())
      << "delta trace lost its memory advantage: dense="
      << run.dense_trace->memory_bytes()
      << " delta=" << run.trace.memory_bytes();
}

}  // namespace
}  // namespace specure
