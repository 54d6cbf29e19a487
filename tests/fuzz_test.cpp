#include <gtest/gtest.h>

#include <set>

#include "fuzz/corpus.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/seeds.hpp"
#include "riscv/decode.hpp"
#include "sim/core.hpp"

namespace specure::fuzz {
namespace {

using riscv::Program;

Program sample_program(util::Rng& rng, std::size_t len = 32) {
  return riscv::random_program(rng, len);
}

class MutationOpTest : public ::testing::TestWithParam<int> {};

TEST_P(MutationOpTest, ProducesValidProgram) {
  const auto op = static_cast<MutationOp>(GetParam());
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  for (int trial = 0; trial < 50; ++trial) {
    const Program in = sample_program(rng, 1 + rng.below(40));
    const Program out = apply_mutation(in, op, rng);
    EXPECT_FALSE(out.code.empty());
    // Mutation must not explode the program size by more than one instr.
    EXPECT_LE(out.code.size(), in.code.size() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, MutationOpTest,
                         ::testing::Range(0, static_cast<int>(
                                                 MutationOp::kCount)),
                         [](const auto& info) {
                           return std::string(mutation_name(
                               static_cast<MutationOp>(info.param)));
                         });

TEST(Mutator, BitFlipChangesExactlyOneWord) {
  util::Rng rng(5);
  const Program in = sample_program(rng);
  const Program out = apply_mutation(in, MutationOp::kBitFlip, rng);
  ASSERT_EQ(in.code.size(), out.code.size());
  int diffs = 0;
  for (std::size_t i = 0; i < in.code.size(); ++i) {
    if (in.code[i] != out.code[i]) {
      ++diffs;
      EXPECT_EQ(__builtin_popcount(in.code[i] ^ out.code[i]), 1);
    }
  }
  EXPECT_EQ(diffs, 1);
}

TEST(Mutator, DeleteShrinksByOne) {
  util::Rng rng(6);
  const Program in = sample_program(rng, 10);
  const Program out = apply_mutation(in, MutationOp::kDeleteInstruction, rng);
  EXPECT_EQ(out.code.size(), 9u);
}

TEST(Mutator, DeleteNeverEmpties) {
  util::Rng rng(7);
  Program p;
  p.code.push_back(riscv::enc_nop());
  const Program out = apply_mutation(p, MutationOp::kDeleteInstruction, rng);
  EXPECT_EQ(out.code.size(), 1u);
}

TEST(Mutator, CloneGrowsByOne) {
  util::Rng rng(8);
  const Program in = sample_program(rng, 10);
  const Program out = apply_mutation(in, MutationOp::kCloneInstruction, rng);
  EXPECT_EQ(out.code.size(), 11u);
}

TEST(Mutator, ReplaceKeepsDecodability) {
  util::Rng rng(9);
  Program p = sample_program(rng, 20);
  for (int i = 0; i < 100; ++i) {
    p = apply_mutation(p, MutationOp::kReplaceInstruction, rng);
  }
  std::size_t valid = 0;
  for (std::uint32_t w : p.code) valid += riscv::decode(w).valid();
  EXPECT_EQ(valid, p.code.size());
}

TEST(Mutator, ImmediateTweakKeepsOpcode) {
  util::Rng rng(10);
  Program p;
  p.code.push_back(riscv::enc_i(riscv::Op::kAddi, 5, 6, 100));
  const Program out = apply_mutation(p, MutationOp::kMutateImmediate, rng);
  const auto d = riscv::decode(out.code[0]);
  EXPECT_EQ(d.op, riscv::Op::kAddi);
  EXPECT_EQ(d.rd, 5);
  EXPECT_EQ(d.rs1, 6);
}

TEST(Mutator, StackedMutationRespectsBounds) {
  util::Rng rng(11);
  MutatorOptions opts;
  opts.max_code_len = 16;
  opts.max_data_len = 32;
  Program p = sample_program(rng, 15);
  for (int i = 0; i < 200; ++i) {
    p = mutate(p, rng, opts);
    EXPECT_LE(p.code.size(), opts.max_code_len);
    EXPECT_LE(p.data.size(), opts.max_data_len);
    EXPECT_FALSE(p.code.empty());
  }
}

TEST(Mutator, SpliceCombinesPrograms) {
  util::Rng rng(12);
  Program a, b;
  for (int i = 0; i < 8; ++i) a.code.push_back(riscv::enc_i(riscv::Op::kAddi, 1, 1, 1));
  for (int i = 0; i < 8; ++i) b.code.push_back(riscv::enc_i(riscv::Op::kAddi, 2, 2, 2));
  bool saw_mix = false;
  for (int i = 0; i < 50; ++i) {
    const Program s = splice(a, b, rng);
    EXPECT_FALSE(s.code.empty());
    bool has_a = false, has_b = false;
    for (auto w : s.code) {
      has_a |= w == a.code[0];
      has_b |= w == b.code[0];
    }
    saw_mix |= has_a && has_b;
  }
  EXPECT_TRUE(saw_mix);
}

TEST(Mutator, DeterministicGivenSeed) {
  util::Rng r1(77), r2(77);
  const Program in = sample_program(r1);
  util::Rng m1(42), m2(42);
  EXPECT_EQ(mutate(in, m1), mutate(in, m2));
}

// ---------------------------------------------------------------- seeds --

TEST(Seeds, SpecialSeedsBuild) {
  util::Rng rng(1);
  const auto seeds = special_seeds(rng);
  ASSERT_EQ(seeds.size(), 3u);
  std::set<std::string> names;
  for (const auto& s : seeds) {
    names.insert(s.name);
    EXPECT_FALSE(s.program.code.empty());
    for (std::uint32_t w : s.program.code) {
      EXPECT_TRUE(riscv::decode(w).valid()) << s.name;
    }
  }
  EXPECT_TRUE(names.count("branch_mispredict"));
  EXPECT_TRUE(names.count("branch_target_injection"));
  EXPECT_TRUE(names.count("rsb_manipulation"));
}

class SpecialSeedWindows : public ::testing::TestWithParam<int> {};

TEST_P(SpecialSeedWindows, OpensMispredictedWindow) {
  // Every special seed must actually create at least one *mispredicted*
  // speculative window on the PUT — that is their entire purpose.
  util::Rng rng(2);
  const auto seeds = special_seeds(rng);
  const auto& seed = seeds[static_cast<std::size_t>(GetParam())];
  sim::Simulator sim{sim::CoreConfig{}};
  const auto res = sim.run(seed.program);
  const auto& db = sim.signal_db();
  const auto mid = db.id_of("core.rob.brupdate_mispredict");
  bool mispredicted = false;
  res.trace.scan({mid}, [&](std::uint64_t, const auto& v) {
    mispredicted |= v[0] != 0;
  });
  EXPECT_TRUE(mispredicted) << seed.name;
}

INSTANTIATE_TEST_SUITE_P(All, SpecialSeedWindows, ::testing::Range(0, 3),
                         [](const auto& info) {
                           switch (info.param) {
                             case 0: return "branch_mispredict";
                             case 1: return "bti";
                             default: return "rsb";
                           }
                         });

TEST(Seeds, RandomSeedsRequestedCount) {
  util::Rng rng(3);
  const auto seeds = random_seeds(rng, 5, 30);
  EXPECT_EQ(seeds.size(), 5u);
  for (const auto& s : seeds) EXPECT_GE(s.program.code.size(), 30u - 5);
}

// --------------------------------------------------------------- corpus --

TEST(Corpus, AddAndSelect) {
  util::Rng rng(4);
  Corpus corpus(8);
  for (int i = 0; i < 5; ++i) {
    corpus.add(sample_program(rng, 4), "seed" + std::to_string(i), 0);
  }
  EXPECT_EQ(corpus.size(), 5u);
  for (int i = 0; i < 50; ++i) {
    const auto& e = corpus.select(rng);
    EXPECT_FALSE(e.program.code.empty());
  }
}

TEST(Corpus, EvictsAtCapacity) {
  util::Rng rng(5);
  Corpus corpus(4);
  for (int i = 0; i < 20; ++i) {
    corpus.add(sample_program(rng, 4), "x", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(corpus.size(), 4u);
}

TEST(Corpus, EnergyDecaysWithSelection) {
  util::Rng rng(6);
  Corpus corpus(4);
  corpus.add(sample_program(rng, 4), "only", 0);
  const double before = corpus.entries()[0].energy;
  for (int i = 0; i < 10; ++i) corpus.select(rng);
  EXPECT_LT(corpus.entries()[0].energy, before);
  EXPECT_EQ(corpus.entries()[0].hits, 10u);
}

TEST(Fuzzer, ReplaysSeedsFirst) {
  FuzzerOptions opts;
  opts.random_seed_count = 2;
  Fuzzer fuzzer(opts, 99);
  // 3 special + 2 random seeds replayed before mutations start.
  std::set<std::size_t> seed_sizes;
  for (int i = 0; i < 5; ++i) {
    const Program p = fuzzer.next();
    EXPECT_FALSE(p.code.empty());
  }
  EXPECT_EQ(fuzzer.corpus().size(), 5u);
  EXPECT_EQ(fuzzer.iteration(), 5u);
}

TEST(Fuzzer, WithoutSpecialSeeds) {
  FuzzerOptions opts;
  opts.use_special_seeds = false;
  opts.random_seed_count = 2;
  Fuzzer fuzzer(opts, 99);
  fuzzer.next();
  fuzzer.next();
  fuzzer.next();  // first mutation round
  EXPECT_EQ(fuzzer.corpus().size(), 2u);
}

TEST(Fuzzer, InterestingInputsEnterCorpus) {
  FuzzerOptions opts;
  opts.random_seed_count = 1;
  opts.use_special_seeds = false;
  Fuzzer fuzzer(opts, 7);
  fuzzer.next();
  const Program p = fuzzer.next();
  const std::size_t before = fuzzer.corpus().size();
  fuzzer.report_interesting(p);
  EXPECT_EQ(fuzzer.corpus().size(), before + 1);
}

TEST(Fuzzer, DeterministicCampaign) {
  FuzzerOptions opts;
  Fuzzer f1(opts, 123), f2(opts, 123);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(f1.next(), f2.next());
  }
}

}  // namespace
}  // namespace specure::fuzz
