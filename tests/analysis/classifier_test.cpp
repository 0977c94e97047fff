#include "analysis/classifier.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "phase/bbv.hpp"
#include "phase/detector.hpp"

namespace dsm::analysis {
namespace {

phase::IntervalRecord rec(unsigned bucket, double dds, double cpi) {
  phase::IntervalRecord r;
  r.bbv.assign(32, 0);
  r.bbv[bucket] = 65536;
  r.dds = dds;
  r.cpi = cpi;
  r.instructions = 1000;
  r.cycles = static_cast<Cycle>(cpi * 1000);
  return r;
}

TEST(ClassifierTest, CountsDistinctPhases) {
  std::vector<phase::IntervalRecord> trace;
  for (int i = 0; i < 10; ++i) trace.push_back(rec(i % 2, 0, 1.0));
  const auto c = classify_trace(trace, false, 32, {.bbv = 100, .dds = 0});
  EXPECT_EQ(c.distinct_phases, 2u);
  ASSERT_EQ(c.assignment.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(c.assignment[i], i % 2);
}

TEST(ClassifierTest, OfflineReplayEqualsOnlineDetector) {
  // The offline sweep must reproduce the *online* hardware decision
  // sequence bit for bit, LRU churn included.
  Rng rng(99);
  std::vector<phase::IntervalRecord> trace;
  for (int i = 0; i < 400; ++i) {
    trace.push_back(rec(static_cast<unsigned>(rng.next_below(8)),
                        rng.uniform_real(0, 1000),
                        rng.uniform_real(0.2, 4.0)));
  }
  const phase::Thresholds t{.bbv = 40'000, .dds = 300.0};

  // Online, with a small table to force LRU replacements.
  phase::BbvDdvDetector online(4, t);
  std::vector<PhaseId> online_ids;
  for (const auto& r : trace) online_ids.push_back(online.classify(r).phase);

  const auto offline = classify_trace(trace, true, 4, t);
  EXPECT_EQ(offline.assignment, online_ids);
  EXPECT_GT(offline.footprint_replacements, 0u);
}

TEST(ClassifierTest, DdsOnlyMattersWhenEnabled) {
  std::vector<phase::IntervalRecord> trace{rec(0, 0, 1), rec(0, 1e9, 1)};
  const phase::Thresholds t{.bbv = 100, .dds = 10.0};
  EXPECT_EQ(classify_trace(trace, false, 32, t).distinct_phases, 1u);
  EXPECT_EQ(classify_trace(trace, true, 32, t).distinct_phases, 2u);
}

TEST(ClassifierTest, ResumeFromAnyCheckpointEqualsReplayFromStart) {
  // Twelve checkpoint strides; BBVs mix two buckets, so distances spread.
  Rng rng(7);
  std::vector<phase::IntervalRecord> trace;
  for (unsigned i = 0; i < 12 * kReplayStride + 3; ++i) {
    const auto bucket = static_cast<unsigned>(rng.next_below(6));
    auto r = rec(bucket, rng.uniform_real(0, 1000), rng.uniform_real(0.2, 4.0));
    const auto moved = static_cast<std::uint32_t>(rng.next_below(30'000));
    r.bbv[bucket] -= moved;
    r.bbv[rng.next_below(32)] += moved;
    trace.push_back(std::move(r));
  }
  const auto n = static_cast<std::uint32_t>(trace.size());
  const auto distance = [&trace](std::uint32_t i, std::uint32_t j,
                                 std::uint64_t) {
    return phase::manhattan(trace[i].bbv, trace[j].bbv);
  };
  unsigned resumed = 0;
  for (const bool use_dds : {false, true}) {
    for (const unsigned capacity : {4u, 32u}) {
      for (std::uint64_t lo = 20'000; lo < 120'000; lo += 20'000) {
        const phase::Thresholds t1{.bbv = lo, .dds = 300.0};
        const phase::Thresholds t2{.bbv = lo + 3'000, .dds = 300.0};
        ReplayState first;
        std::vector<PhaseId> first_ids(n);
        replay_footprint(trace, use_dds, capacity, t1, distance, first,
                         first_ids);
        ReplayState fresh;
        std::vector<PhaseId> want(n);
        const auto want_counts = replay_footprint(
            trace, use_dds, capacity, t2, distance, fresh, want);
        // Every checkpoint at or before the first change, and the first
        // change itself.
        const std::uint32_t change = first.first_change(t2.bbv);
        std::vector<std::uint32_t> froms;
        for (std::uint32_t f = 0; f <= change && f < n; f += kReplayStride)
          froms.push_back(f);
        if (change < n) froms.push_back(change);
        for (const std::uint32_t from : froms) {
          ReplayState state = first;
          std::vector<PhaseId> ids = first_ids;
          const auto counts = replay_footprint(trace, use_dds, capacity, t2,
                                               distance, state, ids, from);
          ASSERT_EQ(ids, want) << "from " << from;
          EXPECT_EQ(counts.phases, want_counts.phases);
          EXPECT_EQ(counts.replacements, want_counts.replacements);
          // The kept minima and checkpoints are the fresh replay's, so a
          // further resume starts from the same state.
          EXPECT_EQ(state.near_min, fresh.near_min) << "from " << from;
          ASSERT_EQ(state.marks.size(), fresh.marks.size());
          for (std::size_t k = 0; k < state.marks.size(); ++k) {
            EXPECT_EQ(state.marks[k].entries, fresh.marks[k].entries);
            EXPECT_EQ(state.marks[k].counts.phases,
                      fresh.marks[k].counts.phases);
            EXPECT_EQ(state.marks[k].counts.replacements,
                      fresh.marks[k].counts.replacements);
          }
          ++resumed;
        }
      }
    }
  }
  EXPECT_GT(resumed, 40u);
}

TEST(ClassifierTest, EmptyTrace) {
  const auto c = classify_trace({}, true, 32, {});
  EXPECT_EQ(c.distinct_phases, 0u);
  EXPECT_TRUE(c.assignment.empty());
}

}  // namespace
}  // namespace dsm::analysis
