#include "core/campaign_worker.hpp"

#include <chrono>

namespace specure::core {

CampaignWorker::CampaignWorker(const sim::CoreConfig& core,
                               const OfflineResult& offline,
                               LpPolicy lp_policy,
                               const DetectorOptions& detector)
    : sim_(core),
      lp_probe_(offline.ifg, offline.pdlc, sim_.signal_db(), lp_policy),
      detector_(offline.ifg, offline.pdlc, sim_.signal_db(), detector),
      scratch_(&sim_.signal_db()) {}

void CampaignWorker::set_observability(const WorkerObservability& hooks) {
  tracer_ = hooks.tracer;
  lane_ = hooks.lane;
  if (hooks.registry != nullptr) {
    sim_cycles_ = hooks.registry->counter("sim/cycles");
    capped_runs_ = hooks.registry->counter("sim/capped_runs");
  } else {
    sim_cycles_ = obs::Counter();
    capped_runs_ = obs::Counter();
  }
}

void CampaignWorker::process(const fuzz::FuzzJob& job,
                             const util::AtomicBitset* lp_already_covered,
                             WorkerResult& out) {
  std::chrono::steady_clock::time_point e0;
  if (tracer_ != nullptr) e0 = std::chrono::steady_clock::now();
  // Recycle the shell's coverage buckets into the scratch RunResult
  // before the run (the simulator resets them keeping capacity), closing
  // the buffer-reuse loop across the executor's queue boundary.
  scratch_.coverage = std::move(out.coverage);
  sim_.run(job.program, scratch_);
  const sim::RunResult& run = scratch_;

  out.iteration = job.iteration;
  extract_mst(run.trace, out.windows);
  lp_probe_.probe(run.trace, out.windows, lp_already_covered, out.lp_hits);
  out.reports = detector_.analyze(run, out.windows);
  // The detector never sees the test input; stamp it so confirmed
  // findings stay re-simulatable (waveform export, triage minimization).
  for (VulnReport& report : out.reports) report.program = job.program;
  out.coverage = std::move(scratch_.coverage);
  out.cycles = run.cycles;

  sim_cycles_.add(lane_, run.cycles);
  // A run that neither halted nor fell off the end of its program spent
  // its whole max_cycles budget.
  if (!run.halted_clean) capped_runs_.add(lane_);
  if (tracer_ != nullptr) {
    tracer_->record(lane_, "execute", "pipeline", e0,
                    std::chrono::steady_clock::now(), job.iteration);
  }
}

}  // namespace specure::core
