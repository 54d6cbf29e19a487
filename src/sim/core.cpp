#include "sim/core.hpp"

#include <stdexcept>
#include <string>

#include "sim/core_impl.hpp"

namespace specure::sim {

using detail::Core;

void RunResult::reset() {
  trace.reset();
  dense_trace.reset();
  commits.clear();
  coverage.clear();
  cycles = 0;
  instructions_committed = 0;
  halted_clean = false;
  final_data.clear();
}

std::size_t Checkpoint::memory_bytes() const {
  return state.memory_bytes() + sizeof(Checkpoint);
}

Simulator::Simulator(CoreConfig cfg) : cfg_(cfg) {
  descs_ = describe_signals(cfg_);
  layout_ = signal_layout(descs_, cfg_);
  for (const auto& d : descs_) {
    db_.add(d.name, d.width, d.cls, d.is_register);
  }
}

RunResult Simulator::run(const riscv::Program& program) const {
  RunResult res(&db_);
  run(program, res);
  return res;
}

void Simulator::run(const riscv::Program& program, RunResult& out) const {
  Core core(cfg_, descs_, layout_, db_, decode_scratch_);
  core.run(program, out, nullptr, nullptr);
}

void Simulator::run(const riscv::Program& program,
                    const CheckpointOptions& options,
                    std::vector<Checkpoint>& checkpoints,
                    RunResult& out) const {
  if (cfg_.record_dense_trace) {
    throw std::runtime_error(
        "checkpointed runs do not support record_dense_trace (the dense "
        "reference recorder has no resume prefix); use the cold path");
  }
  checkpoints.clear();
  Core core(cfg_, descs_, layout_, db_, decode_scratch_);
  core.run(program, out, &options, &checkpoints);
}

void Simulator::run_from(const Checkpoint& checkpoint,
                         const snapshot::Trace& parent_trace,
                         const std::vector<CommitRecord>& parent_commits,
                         const riscv::Program& program,
                         RunResult& out) const {
  if (cfg_.record_dense_trace) {
    throw std::runtime_error(
        "run_from does not support record_dense_trace; use the cold path");
  }
  if (checkpoint.commit_count > parent_commits.size()) {
    throw std::runtime_error(
        "run_from: checkpoint commit prefix (" +
        std::to_string(checkpoint.commit_count) +
        " records) exceeds the parent commit log (" +
        std::to_string(parent_commits.size()) + ")");
  }
  // Seed the run accumulators with the parent prefix, reusing out's
  // buffers; the core then continues from checkpoint.cycle + 1.
  parent_trace.fork_into(checkpoint.cycle, out.trace);
  out.dense_trace.reset();
  out.commits.assign(parent_commits.begin(),
                     parent_commits.begin() +
                         static_cast<std::ptrdiff_t>(checkpoint.commit_count));
  out.coverage = checkpoint.coverage;
  out.instructions_committed = checkpoint.instructions_committed;
  out.cycles = 0;
  out.halted_clean = false;
  out.final_data.clear();
  Core core(cfg_, descs_, layout_, db_, decode_scratch_);
  core.resume(checkpoint, program, out);
}

}  // namespace specure::sim
