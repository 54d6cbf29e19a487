// Campaign-level differential pinning for checkpointed incremental
// simulation: at a fixed seed, the entire CampaignResult (history,
// findings by signature, first-detection map, MST sample, coverage
// curves) must be bit-identical between checkpoint=on and checkpoint=off
// for jobs ∈ {1, 4}, on the default and full presets.
#include <gtest/gtest.h>

#include "core/campaign_spec.hpp"
#include "core/session.hpp"

namespace specure::core {
namespace {

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].iteration, b.history[i].iteration);
    EXPECT_EQ(a.history[i].covered_pdlc, b.history[i].covered_pdlc);
    EXPECT_EQ(a.history[i].coverage_points, b.history[i].coverage_points);
    EXPECT_EQ(a.history[i].vulns_found, b.history[i].vulns_found);
    EXPECT_EQ(a.history[i].cycles, b.history[i].cycles);
  }
  ASSERT_EQ(a.vulns.size(), b.vulns.size());
  for (std::size_t i = 0; i < a.vulns.size(); ++i) {
    EXPECT_EQ(dedup_key(a.vulns[i]), dedup_key(b.vulns[i]));
    EXPECT_EQ(finding_key(a.vulns[i]), finding_key(b.vulns[i]));
    EXPECT_EQ(a.vulns[i].sink_signal, b.vulns[i].sink_signal);
    EXPECT_EQ(a.vulns[i].before, b.vulns[i].before);
    EXPECT_EQ(a.vulns[i].after, b.vulns[i].after);
    EXPECT_EQ(a.vulns[i].program, b.vulns[i].program);
  }
  EXPECT_EQ(a.first_detection, b.first_detection);
  ASSERT_EQ(a.mst_sample.size(), b.mst_sample.size());
  for (std::size_t i = 0; i < a.mst_sample.size(); ++i) {
    EXPECT_EQ(a.mst_sample[i].start_cycle, b.mst_sample[i].start_cycle);
    EXPECT_EQ(a.mst_sample[i].end_cycle, b.mst_sample[i].end_cycle);
    EXPECT_EQ(a.mst_sample[i].inst, b.mst_sample[i].inst);
  }
  EXPECT_EQ(a.total_windows, b.total_windows);
  EXPECT_EQ(a.mispredicted_windows, b.mispredicted_windows);
  EXPECT_EQ(a.pdlc_total, b.pdlc_total);
}

CampaignResult run_campaign(const std::string& preset, bool checkpoint,
                            std::size_t jobs, std::uint64_t iterations,
                            std::uint64_t seed) {
  CampaignSpec spec = CampaignSpec::preset(preset);
  spec.rng_seed = seed;
  spec.jobs = jobs;
  spec.batch_size = 16;
  spec.budget.iterations = iterations;
  spec.checkpoint = checkpoint;
  spec.progress_interval = 0;
  Session session(std::move(spec));
  return session.run();
}

TEST(CheckpointDifferential, DefaultPresetJobs1) {
  expect_identical(run_campaign("default", true, 1, 200, 7),
                   run_campaign("default", false, 1, 200, 7));
}

TEST(CheckpointDifferential, DefaultPresetJobs4) {
  expect_identical(run_campaign("default", true, 4, 200, 7),
                   run_campaign("default", false, 4, 200, 7));
}

TEST(CheckpointDifferential, FullPresetJobs1) {
  const CampaignResult on = run_campaign("full", true, 1, 120, 9);
  const CampaignResult off = run_campaign("full", false, 1, 120, 9);
  // The full preset must actually produce findings for the comparison to
  // cover the detector path end to end.
  EXPECT_FALSE(on.vulns.empty());
  expect_identical(on, off);
}

TEST(CheckpointDifferential, FullPresetJobs4) {
  expect_identical(run_campaign("full", true, 4, 120, 9),
                   run_campaign("full", false, 4, 120, 9));
}

TEST(CheckpointDifferential, CheckpointOnIsJobCountInvariant) {
  expect_identical(run_campaign("full", true, 1, 120, 5),
                   run_campaign("full", true, 4, 120, 5));
}

TEST(CheckpointDifferential, TinyCacheBudgetStillIdentical) {
  CampaignSpec spec = CampaignSpec::preset("default");
  spec.rng_seed = 13;
  spec.jobs = 2;
  spec.batch_size = 16;
  spec.budget.iterations = 150;
  spec.checkpoint = true;
  spec.checkpoint_cache_mb = 1;  // constant eviction pressure
  spec.progress_interval = 0;
  Session tiny(std::move(spec));
  expect_identical(tiny.run(), run_campaign("default", false, 2, 150, 13));
}

TEST(CheckpointDifferential, SpecKeysRoundTrip) {
  CampaignSpec spec;
  EXPECT_TRUE(spec.checkpoint);
  spec.set("checkpoint", "off");
  EXPECT_FALSE(spec.checkpoint);
  spec.set("checkpoint_cache_mb", "8");
  EXPECT_EQ(spec.checkpoint_cache_mb, 8u);
  const CampaignSpec reloaded = CampaignSpec::from_toml_string(spec.to_toml());
  EXPECT_EQ(reloaded, spec);
  spec.set("checkpoint", "on");
  spec.set("checkpoint_cache_mb", "0");
  EXPECT_THROW(spec.validate(), SpecError);
}

}  // namespace
}  // namespace specure::core
