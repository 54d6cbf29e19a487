// Observability overhead: iterations/sec of the same campaign with the
// metrics registry off (metrics=false: histograms unregistered, spans
// off), on (the default), and on with span tracing (--trace-out). The
// instrumentation contract is "result-neutral and ~free": counters are
// relaxed atomics on per-lane cache lines, histograms two more, spans
// two clock reads plus a ring write — so the gate here is tight:
//
//   overhead(on)        <= 3% of the metrics=off baseline
//   overhead(on+trace)  <= 3%
//
// Each campaign is sized to last at least ~1 s, and the modes run in
// bench::interleaved_rounds (7 rounds, order alternating). The gate
// reads the median of the per-round mode/off time ratios, so neither a
// transient load spike nor slow drift in the host's load can pass for
// instrumentation cost. Every mode's CampaignResult is verified
// identical to the baseline's — the bit-identity half of the contract —
// and a divergence fails the bench hard.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "core/vuln_detect.hpp"

namespace {

using namespace specure;

bool results_identical(const core::CampaignResult& a,
                       const core::CampaignResult& b) {
  if (a.history.size() != b.history.size() ||
      a.vulns.size() != b.vulns.size() ||
      a.first_detection != b.first_detection ||
      a.total_windows != b.total_windows ||
      a.pdlc_total != b.pdlc_total) {
    return false;
  }
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (a.history[i].iteration != b.history[i].iteration ||
        a.history[i].covered_pdlc != b.history[i].covered_pdlc ||
        a.history[i].coverage_points != b.history[i].coverage_points ||
        a.history[i].vulns_found != b.history[i].vulns_found ||
        a.history[i].cycles != b.history[i].cycles) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.vulns.size(); ++i) {
    if (core::dedup_key(a.vulns[i]) != core::dedup_key(b.vulns[i])) {
      return false;
    }
  }
  return true;
}

struct Mode {
  const char* name;
  const char* key;
  bool metrics;
  bool trace;
};

core::CampaignSpec mode_spec(const Mode& mode, std::uint64_t iterations,
                             const std::string& trace_path) {
  core::CampaignSpec spec;
  spec.rng_seed = 7;
  spec.jobs = 2;
  spec.budget.iterations = iterations;
  spec.metrics = mode.metrics;
  if (mode.trace) spec.trace_out = trace_path;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace specure;
  bench::BenchJson json(argc, argv, "obs");
  bench::header("Observability overhead: metrics off / on / on+tracing");

  constexpr double kMinCampaignSeconds = 1.0;
  constexpr double kGatePct = 3.0;
  const std::string trace_path = "bench_obs_trace.json";

  const Mode kModes[] = {
      {"metrics=off", "off", false, false},
      {"metrics=on", "on", true, false},
      {"on+tracing", "trace", true, true},
  };
  constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

  // Size the campaign from a short metrics=off probe so every timed run
  // lasts at least kMinCampaignSeconds on this host (with 50% headroom:
  // the campaign slows down as its corpus grows).
  std::uint64_t iterations = 320;
  {
    const core::CampaignResult probe =
        bench::run_spec(mode_spec(kModes[0], iterations, trace_path));
    const double ips = probe.seconds > 0 ? iterations / probe.seconds : 0;
    iterations = std::max<std::uint64_t>(
        iterations,
        static_cast<std::uint64_t>(1.5 * kMinCampaignSeconds * ips));
  }
  bench::note("campaign: " + std::to_string(iterations) +
              " iterations, jobs=2, default preset; median of " +
              std::to_string(bench::kRounds) +
              " interleaved rounds per mode");

  std::vector<core::CampaignResult> reference(kModeCount);
  std::vector<bool> have_reference(kModeCount, false);
  obs::Snapshot last_snapshot;
  const auto rounds = bench::interleaved_rounds(kModeCount, [&](std::size_t m) {
    core::Session session(mode_spec(kModes[m], iterations, trace_path));
    const auto t0 = std::chrono::steady_clock::now();
    core::CampaignResult result = session.run();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!have_reference[m]) {
      reference[m] = std::move(result);
      have_reference[m] = true;
    }
    if (m == kModeCount - 1) last_snapshot = session.metrics_snapshot();
    return s;
  });
  std::remove(trace_path.c_str());
  bool identical = true;
  for (std::size_t m = 1; m < kModeCount; ++m) {
    identical &= results_identical(reference[0], reference[m]);
  }

  std::printf("  %-12s %-10s %-10s %-10s %s\n", "mode", "seconds", "iters/s",
              "overhead", "(min .. max per round)");
  bool gate_ok = true;
  for (std::size_t m = 0; m < kModeCount; ++m) {
    std::vector<double> seconds;
    for (const auto& round : rounds) seconds.push_back(round[m]);
    const double median_s = bench::spread(seconds).median;
    const double ips = median_s > 0 ? iterations / median_s : 0;
    const bench::Spread ratio = bench::ratio_spread(rounds, m, 0);
    const double overhead = (ratio.median - 1) * 100.0;
    std::printf("  %-12s %-10.3f %-10.1f %+-10.2f (%+.2f%% .. %+.2f%%)\n",
                kModes[m].name, median_s, ips, overhead,
                (ratio.min - 1) * 100.0, (ratio.max - 1) * 100.0);
    json.metric(std::string("iters_per_sec_") + kModes[m].key, ips);
    json.metric(std::string("overhead_pct_") + kModes[m].key, overhead);
    if (m > 0 && overhead > kGatePct) gate_ok = false;
  }
  json.metric("gate_overhead_pct", kGatePct);
  json.metric("campaign_iterations", static_cast<double>(iterations));
  json.metric("rounds", static_cast<double>(rounds.size()));
  bench::export_registry(json, last_snapshot);

  bench::note("gate: median per-round instrumentation overhead <= 3% of "
              "the metrics=off baseline; results must be bit-identical "
              "across modes");
  if (!identical) {
    std::printf("  !! CampaignResult diverged across observability modes "
                "(the result-neutrality contract is broken)\n");
    return 1;
  }
  if (!gate_ok) {
    std::printf("  !! overhead gate exceeded (median overhead above 3%%)\n");
  }
  return 0;
}
