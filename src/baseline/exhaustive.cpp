#include "baseline/exhaustive.hpp"

#include <chrono>
#include <set>

#include "core/mst.hpp"
#include "core/offline.hpp"
#include "riscv/program.hpp"

namespace specure::baseline {

using riscv::Op;

namespace {
constexpr std::uint8_t A0 = 10, T0 = 5, T3 = 28, T4 = 29, T5 = 30, T6 = 31;

/// Macro alphabet: each symbol expands to a short instruction group. This
/// is the standard model reduction — no CSR instructions, no long arming
/// prefixes; exactly the reduction that makes the (M)WAIT/Zenbleed
/// emulations unreachable for the bounded method.
const std::vector<std::vector<std::uint32_t>>& macro_alphabet() {
  static const std::vector<std::vector<std::uint32_t>> kMacros = {
      // 0: always-taken branch (mispredicts on first encounter).
      {riscv::enc_b(Op::kBeq, T0, T0, 20)},
      // 1: never-taken branch.
      {riscv::enc_b(Op::kBne, T0, T0, 20)},
      // 2: direct load from the data region.
      {riscv::enc_i(Op::kLd, T3, A0, 0)},
      // 3: dependent dereference of the last loaded value (bounded).
      {riscv::enc_i(Op::kAndi, T3, T3, 1023),
       riscv::enc_r(Op::kAdd, T5, A0, T3),
       riscv::enc_i(Op::kLd, T4, T5, 0)},
      // 4: ALU filler.
      {riscv::enc_i(Op::kAddi, T6, T6, 1)},
      // 5: store to the data region.
      {riscv::enc_s(Op::kSd, A0, T6, 8)},
  };
  return kMacros;
}

riscv::Program sequence_to_program(const std::vector<unsigned>& seq) {
  riscv::ProgramBuilder b;
  b.li(A0, static_cast<std::int64_t>(riscv::kDataBase));
  b.li(T0, 1);
  riscv::Program prologue = b.build();
  riscv::Program p;
  p.code = prologue.code;
  for (unsigned sym : seq) {
    for (std::uint32_t w : macro_alphabet()[sym]) p.code.push_back(w);
  }
  for (int i = 0; i < 6; ++i) p.code.push_back(riscv::enc_nop());
  p.code.push_back(riscv::enc_ecall());
  p.data.resize(2048);
  for (std::size_t i = 0; i < p.data.size(); ++i) {
    p.data[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return p;
}

}  // namespace

std::vector<std::uint32_t> ExhaustiveChecker::alphabet() {
  std::vector<std::uint32_t> flat;
  for (const auto& m : macro_alphabet()) {
    flat.insert(flat.end(), m.begin(), m.end());
  }
  return flat;
}

ExhaustiveChecker::ExhaustiveChecker(const ExhaustiveOptions& options)
    : options_(options) {}

ExhaustiveResult ExhaustiveChecker::run() {
  const auto t0 = std::chrono::steady_clock::now();
  ExhaustiveResult result;

  const core::OfflineResult offline = core::run_offline_phase(options_.core);
  sim::Simulator sim(options_.core);
  core::DetectorOptions dopt;
  dopt.monitor_cache = options_.monitor_cache;
  core::VulnerabilityDetector detector(offline.ifg, offline.pdlc,
                                       sim.signal_db(), dopt);
  std::set<std::string> seen;

  const std::size_t nsym = macro_alphabet().size();
  for (unsigned depth = 1; depth <= options_.max_depth; ++depth) {
    std::vector<unsigned> seq(depth, 0);
    for (;;) {
      if (result.sequences_tried >= options_.state_budget) {
        result.budget_exhausted = true;
        result.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        return result;
      }
      ++result.sequences_tried;
      const riscv::Program p = sequence_to_program(seq);
      const sim::RunResult run = sim.run(p);
      const auto windows = core::extract_mst(run.trace);
      for (auto& report : detector.analyze(run, windows)) {
        if (seen.insert(core::finding_key(report)).second) {
          result.findings.push_back(std::move(report));
        }
      }
      // Advance the odometer.
      std::size_t pos = 0;
      while (pos < depth && ++seq[pos] == nsym) {
        seq[pos] = 0;
        ++pos;
      }
      if (pos == depth) break;
    }
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return result;
}

}  // namespace specure::baseline
