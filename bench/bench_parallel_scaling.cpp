// Parallel campaign scaling: iterations/sec of the Online Phase at
// 1/2/4/8 simulation workers on the default MiniBOOM configuration,
// under the pipelined sliding-window executor.
//
// The batch size is held constant across worker counts, so every row runs
// the *same* campaign (bit-identical CampaignResult — verified here via
// the final LP coverage) and only wall-clock throughput may differ. Each
// row also reports its per-stage split (generate / execute / queue-wait /
// merge), so a scaling regression names the stage that ate the speedup.
//
// Scaling gate: on hosts with >= 4 hardware threads, jobs=4 must reach at
// least 2x the jobs=1 throughput. One short row pair is too
// noisy to gate on (0.94-3.12x across runs of the same build at 400
// iterations), so the gate runs bench::interleaved_rounds of one jobs=1
// and one jobs=4 campaign of kGateIters iterations each and gates on the
// median per-round speedup, printing the min and max beside it. On smaller hosts the
// extra workers just time-slice one core, so the gate is skipped with a
// visible notice instead of reporting a fake failure.
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace specure;
  // Peak RSS is a monotonic high-water mark, so later rows can only
  // report >= earlier rows; the first row is the honest one.
  using bench::peak_rss_kib;

  bench::BenchJson json(argc, argv, "parallel_scaling");
  bench::header("Parallel campaign scaling (default MiniBOOM)");
  const std::uint64_t kIters = 400;
  const std::size_t kBatch = 32;
  bench::note("iterations: " + std::to_string(kIters) +
              ", batch size: " + std::to_string(kBatch) +
              ", hardware threads: " +
              std::to_string(std::thread::hardware_concurrency()));

  std::printf("  %-8s %-12s %-10s %-12s %-10s %-12s\n", "jobs", "seconds",
              "iters/sec", "speedup", "lp-cov", "peak-rss");
  double base_ips = 0;
  std::size_t base_lp = 0;
  // Every row runs the same campaign, so lp-cov must agree across them.
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    core::CampaignSpec spec;
    spec.rng_seed = 1;
    spec.jobs = jobs;
    spec.batch_size = kBatch;
    spec.budget.iterations = kIters;
    const auto [result, pipeline, registry] = bench::run_spec_with_stats(spec);
    const double ips =
        result.seconds > 0
            ? static_cast<double>(result.history.size()) / result.seconds
            : 0.0;
    const std::size_t lp =
        result.history.empty() ? 0 : result.history.back().covered_pdlc;
    if (jobs == 1) {
      base_ips = ips;
      base_lp = lp;
    }
    std::printf("  %-8zu %-12.3f %-10.1f %-12.2f %-10zu %zu KiB\n", jobs,
                result.seconds, ips, base_ips > 0 ? ips / base_ips : 0.0, lp,
                peak_rss_kib());
    double execute = 0;
    double queue_wait = 0;
    for (std::size_t w = 0; w < pipeline.workers.size(); ++w) {
      const core::PipelineWorkerStats& ws = pipeline.workers[w];
      execute += ws.execute_seconds;
      queue_wait += ws.queue_wait_seconds;
      std::printf("    worker %zu: %llu jobs, execute %.3fs, "
                  "queue-wait %.3fs\n",
                  w, static_cast<unsigned long long>(ws.jobs),
                  ws.execute_seconds, ws.queue_wait_seconds);
    }
    std::printf("    merger: generate %.3fs, merge %.3fs, "
                "result-wait %.3fs\n",
                pipeline.generate_seconds, pipeline.merge_seconds,
                pipeline.result_wait_seconds);
    const std::string suffix = "_jobs" + std::to_string(jobs);
    json.metric("iters_per_sec" + suffix, ips);
    json.metric("execute_seconds" + suffix, execute);
    json.metric("queue_wait_seconds" + suffix, queue_wait);
    json.metric("generate_seconds" + suffix, pipeline.generate_seconds);
    json.metric("merge_seconds" + suffix, pipeline.merge_seconds);
    json.metric("result_wait_seconds" + suffix, pipeline.result_wait_seconds);
    if (lp != base_lp) {
      std::printf("  !! determinism violation: lp-cov %zu != %zu at the "
                  "jobs=1 baseline\n",
                  lp, base_lp);
      return 1;
    }
    // The full registry snapshot of the deepest row (jobs=8) rides along
    // in the JSON.
    if (jobs == 8) bench::export_registry(json, registry);
  }
  json.metric("peak_rss_kib", static_cast<double>(peak_rss_kib()));
  bench::note("speedup is relative to jobs=1; campaign results are "
              "identical across rows by construction");
  bench::note("peak-rss is the process high-water mark (monotonic across "
              "rows); worker traces are delta-native, O(changes) each");

  // Scaling gate (see the file comment): only meaningful when 4 workers
  // can actually run on 4 hardware threads.
  const unsigned hw = std::thread::hardware_concurrency();
  json.metric("nproc", hw);
  if (hw < 4) {
    bench::note("scaling gate SKIPPED: only " + std::to_string(hw) +
                " hardware thread(s); the >= 2x jobs=4 check needs >= 4");
    return 0;
  }
  constexpr std::uint64_t kGateIters = 2000;
  std::printf("  scaling gate: %zu interleaved jobs=1/jobs=4 rounds, %llu "
              "iterations each\n",
              bench::kRounds, static_cast<unsigned long long>(kGateIters));
  const std::size_t kGateJobs[] = {1, 4};
  std::optional<std::size_t> gate_lp;
  bool deterministic = true;
  const auto rounds = bench::interleaved_rounds(2, [&](std::size_t side) {
    core::CampaignSpec spec;
    spec.rng_seed = 1;
    spec.jobs = kGateJobs[side];
    spec.batch_size = kBatch;
    spec.budget.iterations = kGateIters;
    const core::CampaignResult result = bench::run_spec(spec);
    const std::size_t lp = result.history.back().covered_pdlc;
    if (!gate_lp) gate_lp = lp;
    if (lp != *gate_lp) {
      std::printf("  !! determinism violation at jobs=%zu: lp-cov %zu != "
                  "%zu\n",
                  kGateJobs[side], lp, *gate_lp);
      deterministic = false;
    }
    return static_cast<double>(result.history.size()) / result.seconds;
  });
  if (!deterministic) return 1;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::printf("    round %zu: jobs=1 %.1f iters/sec, jobs=4 %.1f "
                "iters/sec, %.2fx\n",
                r, rounds[r][0], rounds[r][1], rounds[r][1] / rounds[r][0]);
  }
  const bench::Spread speedup = bench::ratio_spread(rounds, 1, 0);
  json.metric("speedup_jobs4", speedup.median);
  json.metric("speedup_jobs4_min", speedup.min);
  json.metric("speedup_jobs4_max", speedup.max);
  json.metric("gate_pairs", static_cast<double>(rounds.size()));
  json.metric("gate_iterations", kGateIters);
  if (speedup.median < 2.0) {
    std::printf("  !! scaling gate FAILED: median jobs=4 speedup %.2fx "
                "(min %.2fx, max %.2fx; need >= 2.00x on %u hardware "
                "threads)\n",
                speedup.median, speedup.min, speedup.max, hw);
    return 1;
  }
  std::printf("  scaling gate passed: median jobs=4 speedup %.2fx (min "
              "%.2fx, max %.2fx)\n",
              speedup.median, speedup.min, speedup.max);
  return 0;
}
