#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "snapshot/signal_db.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/vcd.hpp"

namespace specure::snapshot {
namespace {

SignalDb make_db() {
  SignalDb db;
  db.add("core.a", 64, SignalClass::kMicroarchitectural, true);
  db.add("core.b", 8, SignalClass::kArchitectural, true);
  db.add("core.c", 1, SignalClass::kWire, false);
  return db;
}

/// Trace::changed_words unpacked to one bool per signal.
std::vector<bool> changed(const Trace& t, std::uint64_t from,
                          std::uint64_t to) {
  std::vector<std::uint64_t> words;
  t.changed_words(from, to, words);
  std::vector<bool> mask(t.db().size());
  for (SignalId id = 0; id < mask.size(); ++id) {
    mask[id] = (words[id / 64] >> (id % 64)) & 1;
  }
  return mask;
}

Snapshot snap(std::uint64_t cycle, std::vector<std::uint64_t> vals) {
  Snapshot s;
  s.cycle = cycle;
  s.values = std::move(vals);
  return s;
}

TEST(SignalDb, AddAndLookup) {
  const SignalDb db = make_db();
  EXPECT_EQ(db.size(), 3u);
  EXPECT_EQ(db.id_of("core.b"), 1u);
  EXPECT_EQ(db.find("missing"), kInvalidSignal);
  EXPECT_THROW(db.id_of("missing"), std::runtime_error);
  EXPECT_TRUE(db.has("core.c"));
  EXPECT_EQ(db.info(0).width, 64u);
}

TEST(SignalDb, DuplicateThrows) {
  SignalDb db = make_db();
  EXPECT_THROW(db.add("core.a", 1), std::runtime_error);
}

TEST(SignalDb, ClassFilter) {
  const SignalDb db = make_db();
  EXPECT_EQ(db.with_class(SignalClass::kArchitectural).size(), 1u);
  EXPECT_EQ(db.with_class(SignalClass::kMicroarchitectural).size(), 1u);
  EXPECT_EQ(db.with_class(SignalClass::kWire).size(), 1u);
}

TEST(Snapshot, DiffFindsChanges) {
  const auto a = snap(10, {1, 2, 3});
  const auto b = snap(20, {1, 5, 3});
  const auto deltas = diff(a, b);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].id, 1u);
  EXPECT_EQ(deltas[0].before, 2u);
  EXPECT_EQ(deltas[0].after, 5u);
}

TEST(Snapshot, DiffIdenticalIsEmpty) {
  const auto a = snap(1, {7, 7, 7});
  EXPECT_TRUE(diff(a, a).empty());
}

TEST(Snapshot, DiffMismatchedSchemaThrows) {
  EXPECT_THROW(diff(snap(1, {1}), snap(2, {1, 2})), std::runtime_error);
}

TEST(Snapshot, ToggleCount) {
  const auto a = snap(1, {0b0000, 0xff});
  const auto b = snap(2, {0b1010, 0xff});
  EXPECT_EQ(toggle_count(a, b), 2u);
}

TEST(Trace, AtCycleContiguousLookup) {
  const SignalDb db = make_db();
  Trace t(&db);
  for (std::uint64_t c = 1; c <= 50; ++c) t.push(snap(c, {c, c, c}));
  EXPECT_EQ(t.at_cycle(1).values[0], 1u);
  EXPECT_EQ(t.at_cycle(37).values[0], 37u);
  EXPECT_EQ(t.at_cycle(50).values[0], 50u);
  EXPECT_THROW(t.at_cycle(51), std::runtime_error);
  EXPECT_THROW(t.at_cycle(0), std::runtime_error);
}

TEST(Trace, AtCycleErrorNamesCoveredRange) {
  const SignalDb db = make_db();
  Trace t(&db);
  for (std::uint64_t c = 5; c <= 9; ++c) t.push(snap(c, {c, 0, 0}));
  try {
    t.at_cycle(12);
    FAIL() << "expected out-of-range throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle 12"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("5..9"), std::string::npos);
  }
  EXPECT_THROW(Trace(&db).at_cycle(1), std::runtime_error);
}

TEST(Trace, AtCycleNonContiguousLookup) {
  const SignalDb db = make_db();
  Trace t(&db);
  for (const std::uint64_t c : {2u, 3u, 10u, 11u, 40u}) {
    t.push(snap(c, {c, c, c}));
  }
  EXPECT_EQ(t.at_cycle(10).values[1], 10u);
  EXPECT_EQ(t.at_cycle(40).values[2], 40u);
  EXPECT_THROW(t.at_cycle(12), std::runtime_error);
}

TEST(Trace, LongTraceAtCycleReplay) {
  const SignalDb db = make_db();
  Trace t(&db);
  // A long trace; signal 1 changes rarely, so its value must carry across
  // hundreds of ticks with no event of its own.
  const std::uint64_t n = 1000;
  for (std::uint64_t c = 1; c <= n; ++c) {
    t.push(snap(c, {c, c / 100, c % 2}));
  }
  const std::uint64_t probes[] = {1, 2, 63, 64, 65, 99, 100, 500, n - 1, n};
  for (const std::uint64_t c : probes) {
    const Snapshot s = t.at_cycle(c);
    EXPECT_EQ(s.cycle, c);
    EXPECT_EQ(s.values[0], c) << "cycle " << c;
    EXPECT_EQ(s.values[1], c / 100) << "cycle " << c;
    EXPECT_EQ(s.values[2], c % 2) << "cycle " << c;
    EXPECT_EQ(t[c - 1].values, s.values) << "cycle " << c;
  }
}

TEST(Trace, RecordDetectsChangesAndCountsToggles) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.begin_cycle(1);
  EXPECT_EQ(t.record(0, 0), 0u);   // initial zero: no event, no toggles
  EXPECT_EQ(t.record(1, 3), 2u);   // 0 -> 0b11
  EXPECT_EQ(t.record(2, 1), 1u);
  t.begin_cycle(2);
  EXPECT_EQ(t.record(0, 0), 0u);
  EXPECT_EQ(t.record(1, 3), 0u);   // unchanged: no event
  EXPECT_EQ(t.record(2, 0), 1u);
  EXPECT_EQ(t.event_count(), 3u);
  EXPECT_EQ(t.at_cycle(2).values[1], 3u);
}

TEST(Trace, RecordEnforcesOrdering) {
  const SignalDb db = make_db();
  Trace t(&db);
  EXPECT_THROW(t.record(0, 1), std::runtime_error);  // before begin_cycle
  t.begin_cycle(5);
  t.record(1, 7);
  EXPECT_THROW(t.record(1, 8), std::runtime_error);  // not ascending
  EXPECT_THROW(t.record(0, 8), std::runtime_error);
  EXPECT_THROW(t.begin_cycle(5), std::runtime_error);  // not increasing
  EXPECT_THROW(t.record(99, 1), std::runtime_error);   // outside schema
}

TEST(Trace, DeltaMemoryBeatsDenseRecorder) {
  const SignalDb db = make_db();
  Trace t(&db);
  DenseTrace dense(&db);
  // 1000 ticks, a change only every 4th tick — sparse, like real signals.
  for (std::uint64_t c = 1; c <= 1000; ++c) {
    const Snapshot s = snap(c, {c / 4, 7, 0});
    t.push(s);
    dense.push(s);
  }
  EXPECT_LT(t.memory_bytes(), dense.memory_bytes());
  // Queries agree between the two recorders.
  EXPECT_EQ(changed(t, 10, 50), dense.changed_mask(10, 50));
  EXPECT_EQ(changed(t, 0, 1000), dense.changed_mask(0, 1000));
}

TEST(Trace, ChangedMask) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(1, {0, 0, 0}));
  t.push(snap(2, {1, 0, 0}));
  t.push(snap(3, {1, 0, 1}));
  const auto mask = changed(t, 1, 3);
  EXPECT_TRUE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_TRUE(mask[2]);
}

TEST(Trace, ChangedWordsMatchesDenseChangedMask) {
  // 150 signals, so the word mask spans three words with a partial last
  // one. Signal i changes at every cycle divisible by (i % 7) + 1.
  SignalDb db;
  for (int i = 0; i < 150; ++i) db.add("s" + std::to_string(i), 8);
  Trace t(&db);
  DenseTrace dense(&db);
  for (std::uint64_t c = 3; c <= 40; ++c) {
    std::vector<std::uint64_t> vals(db.size());
    for (std::size_t i = 0; i < vals.size(); ++i) {
      vals[i] = c / (i % 7 + 1);
    }
    t.push(snap(c, vals));
    dense.push(snap(c, std::move(vals)));
  }
  // Before and at the first recorded tick (which never counts), empty,
  // single-tick, ordinary, past the last cycle, and fully out of range.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> windows = {
      {0, 3},  {0, 5},   {3, 9},   {2, 2},   {10, 10}, {10, 11},
      {7, 19}, {30, 90}, {40, 60}, {90, 99}, {0, 1000}};
  std::vector<std::uint64_t> words = {~0ULL};  // stale content is replaced
  for (const auto& [from, to] : windows) {
    t.changed_words(from, to, words);
    const std::vector<bool> mask = dense.changed_mask(from, to);
    ASSERT_EQ(words.size(), 3u);
    for (SignalId id = 0; id < db.size(); ++id) {
      EXPECT_EQ((words[id / 64] >> (id % 64)) & 1, mask[id] ? 1u : 0u)
          << "signal " << id << " window (" << from << ", " << to << "]";
    }
    EXPECT_EQ(words[2] >> (db.size() % 64), 0u) << "bits past the last id";
  }
  t.changed_words(0, 3, words);
  EXPECT_EQ(words, std::vector<std::uint64_t>(3, 0));  // first tick only
}

TEST(Trace, ResetKeepsSchemaDropsData) {
  // Workers reset one Trace per job instead of reallocating it; a reset
  // trace must record exactly like a fresh one.
  const SignalDb db = make_db();
  const auto record = [](Trace& t) {
    for (std::uint64_t c = 1; c <= 80; ++c) {
      t.begin_cycle(c);
      t.record(0, c % 4);
      t.record(1, c % 3);
      t.record(2, c % 2);
    }
  };
  Trace t(&db);
  record(t);
  EXPECT_GT(t.event_count(), 0u);
  t.reset();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.event_count(), 0u);
  record(t);
  Trace fresh(&db);
  record(fresh);
  ASSERT_EQ(t.size(), fresh.size());
  ASSERT_EQ(t.event_count(), fresh.event_count());
  for (std::size_t e = 0; e < t.event_count(); ++e) {
    EXPECT_EQ(t.event_id(e), fresh.event_id(e));
    EXPECT_EQ(t.event_value(e), fresh.event_value(e));
  }
  EXPECT_EQ(t[t.size() - 1].values, fresh[fresh.size() - 1].values);
  EXPECT_EQ(t.memory_bytes(), fresh.memory_bytes());
}

TEST(Vcd, ContainsHeaderAndChanges) {
  const SignalDb db = make_db();
  Trace t(&db);
  t.push(snap(1, {0xab, 1, 0}));
  t.push(snap(2, {0xab, 2, 1}));
  std::ostringstream os;
  write_vcd(os, t, "tb");
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("$scope module tb $end"), std::string::npos);
  EXPECT_NE(vcd.find("core_a"), std::string::npos);
  EXPECT_NE(vcd.find("#1"), std::string::npos);
  EXPECT_NE(vcd.find("#2"), std::string::npos);
  // Unchanged signal 0 must appear once (initial dump) only.
  const std::string code0 = "!";  // first signal gets code index 0 -> '!'
  std::size_t occurrences = 0;
  for (std::size_t pos = 0; (pos = vcd.find(" " + code0 + "\n", pos)) !=
                            std::string::npos;
       ++pos) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST(Vcd, SingleBitFormat) {
  SignalDb db;
  db.add("bit", 1);
  Trace t(&db);
  t.push(snap(1, {1}));
  std::ostringstream os;
  write_vcd(os, t);
  EXPECT_NE(os.str().find("1!"), std::string::npos);
}

}  // namespace
}  // namespace specure::snapshot
