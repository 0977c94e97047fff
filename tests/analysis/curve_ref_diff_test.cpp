// curve_ref_diff_test.cpp — differential test of the threshold sweeps
// against a retained reference implementation of the per-point evaluation,
// in the style of policy_ref_diff_test. The reference below is the old
// curve.cpp evaluation verbatim (modulo test-local naming): every grid
// point re-runs classify_trace on a phase::FootprintTable for every
// processor, recomputes dds_scale, and takes identifier_cov from a
// std::map tally. The library instead computes each processor's pairwise
// distance triangle once, replays the footprint rules over interval
// indices, and classifies each distinct threshold key once, resuming the
// previous key's replay where its decisions can first change. Every
// CurvePoint field must match exactly (==, not near) at every point of
// bbv_cov_curve and of the full bbv_ddv_cov_points grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/classifier.hpp"
#include "analysis/curve.hpp"
#include "apps/registry.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "phase/bbv.hpp"
#include "phase/footprint.hpp"
#include "sim/machine.hpp"

namespace dsm::analysis {
namespace {

// ---- reference: the per-point evaluation, retained verbatim ----

struct RefDdsScale {
  double noise = 0.0;
  double range = 0.0;
};

RefDdsScale ref_dds_scale(const std::vector<phase::IntervalRecord>& trace) {
  RefDdsScale s;
  if (trace.empty()) return s;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  std::vector<double> diffs;
  diffs.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    lo = std::min(lo, trace[i].dds);
    hi = std::max(hi, trace[i].dds);
    if (i > 0) diffs.push_back(std::abs(trace[i].dds - trace[i - 1].dds));
  }
  s.range = hi - lo;
  if (!diffs.empty()) {
    std::nth_element(diffs.begin(), diffs.begin() + diffs.size() / 2,
                     diffs.end());
    s.noise = diffs[diffs.size() / 2];
  }
  if (s.noise <= 0.0) s.noise = s.range > 0.0 ? s.range * 1e-3 : 1.0;
  return s;
}

double ref_dds_threshold_at(const RefDdsScale& s, double frac) {
  if (frac >= 1.0) return s.range;
  const double lo = 0.5 * s.noise;
  const double hi = std::max(s.range, lo * 2.0);
  return lo * std::pow(hi / lo, frac);
}

double ref_sweep_frac(unsigned k, unsigned steps) {
  if (steps <= 1) return 1.0;
  const double f = static_cast<double>(k) / (steps - 1);
  return f * f;
}

struct RefClassified {
  std::vector<PhaseId> assignment;
  unsigned distinct_phases = 0;
};

RefClassified ref_classify_trace(
    const std::vector<phase::IntervalRecord>& trace, bool use_dds,
    unsigned footprint_capacity, phase::Thresholds thresholds) {
  phase::FootprintTable table(footprint_capacity, use_dds);
  RefClassified out;
  out.assignment.reserve(trace.size());
  std::unordered_set<PhaseId> seen;
  for (const auto& rec : trace) {
    const auto c = table.classify(rec.bbv, rec.dds, thresholds.bbv,
                                  use_dds ? thresholds.dds : 0.0);
    out.assignment.push_back(c.phase);
    seen.insert(c.phase);
  }
  out.distinct_phases = static_cast<unsigned>(seen.size());
  return out;
}

double ref_identifier_cov(const std::vector<phase::IntervalRecord>& trace,
                          const std::vector<PhaseId>& assignment) {
  if (trace.empty()) return 0.0;
  std::map<PhaseId, RunningStat> groups;
  for (std::size_t i = 0; i < trace.size(); ++i)
    groups[assignment[i]].add(trace[i].cpi);
  double weighted = 0.0;
  std::size_t total = 0;
  for (const auto& [phase, stat] : groups) {
    weighted += stat.cov() * static_cast<double>(stat.count());
    total += static_cast<std::size_t>(stat.count());
  }
  return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

CurvePoint ref_evaluate(const std::vector<phase::ProcessorTrace>& procs,
                        bool use_dds, std::uint64_t bbv_thr, double dds_frac,
                        const CurveParams& p) {
  CurvePoint pt;
  pt.thresholds.bbv = bbv_thr;
  double sum_cov = 0.0, sum_phases = 0.0, sum_tuning = 0.0;
  unsigned counted = 0;
  for (const auto& proc : procs) {
    if (proc.intervals.empty()) continue;
    phase::Thresholds t;
    t.bbv = bbv_thr;
    t.dds = use_dds
                ? ref_dds_threshold_at(ref_dds_scale(proc.intervals), dds_frac)
                : 0.0;
    const auto cls = ref_classify_trace(proc.intervals, use_dds,
                                        p.footprint_capacity, t);
    sum_cov += ref_identifier_cov(proc.intervals, cls.assignment);
    sum_phases += cls.distinct_phases;
    sum_tuning +=
        std::min(1.0, static_cast<double>(cls.distinct_phases) *
                          p.tuning_trials / proc.intervals.size());
    ++counted;
  }
  if (counted > 0) {
    pt.mean_cov = sum_cov / counted;
    pt.mean_phases = sum_phases / counted;
    pt.tuning_fraction = sum_tuning / counted;
  }
  return pt;
}

std::vector<CurvePoint> ref_bbv_cov_curve(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p) {
  std::vector<CurvePoint> out;
  const double max_dist = 2.0 * p.bbv_norm;
  for (unsigned k = 0; k < p.bbv_steps; ++k) {
    const auto thr =
        static_cast<std::uint64_t>(ref_sweep_frac(k, p.bbv_steps) * max_dist);
    out.push_back(ref_evaluate(procs, false, thr, 0.0, p));
  }
  return out;
}

std::vector<CurvePoint> ref_bbv_ddv_cov_points(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p) {
  std::vector<CurvePoint> out;
  const double max_dist = 2.0 * p.bbv_norm;
  for (unsigned i = 0; i < p.bbv_steps; ++i) {
    const auto bbv_thr =
        static_cast<std::uint64_t>(ref_sweep_frac(i, p.bbv_steps) * max_dist);
    for (unsigned j = 0; j < p.dds_steps; ++j) {
      const double dds_frac =
          p.dds_steps <= 1 ? 1.0
                           : static_cast<double>(j) / (p.dds_steps - 1);
      auto pt = ref_evaluate(procs, true, bbv_thr, dds_frac, p);
      pt.thresholds.dds = dds_frac;
      out.push_back(pt);
    }
  }
  return out;
}

// ---- differential checks ----

void expect_identical(const std::vector<CurvePoint>& got,
                      const std::vector<CurvePoint>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    const auto& g = got[k];
    const auto& w = want[k];
    ASSERT_EQ(g.mean_cov, w.mean_cov) << what << " point " << k;
    ASSERT_EQ(g.mean_phases, w.mean_phases) << what << " point " << k;
    ASSERT_EQ(g.tuning_fraction, w.tuning_fraction) << what << " point " << k;
    ASSERT_EQ(g.thresholds.bbv, w.thresholds.bbv) << what << " point " << k;
    ASSERT_EQ(g.thresholds.dds, w.thresholds.dds) << what << " point " << k;
  }
}

void expect_sweeps_match(const std::vector<phase::ProcessorTrace>& procs,
                         const CurveParams& cp, const std::string& what) {
  expect_identical(bbv_cov_curve(procs, cp), ref_bbv_cov_curve(procs, cp),
                   what + " bbv");
  expect_identical(bbv_ddv_cov_points(procs, cp),
                   ref_bbv_ddv_cov_points(procs, cp), what + " bbv+ddv");
}

/// BBVs drawn from a handful of two-bucket patterns over few buckets, so
/// many pairwise distances are equal: an interval between two patterns
/// often sits at the same distance from entries of different phases,
/// which exercises the strict-< first-entry tie-break.
phase::BbvVector pattern_bbv(Rng& rng) {
  static constexpr std::uint32_t kSplit[] = {0, 16384, 32768};
  phase::BbvVector v(32, 0);
  const auto a = static_cast<unsigned>(rng.next_below(4));
  const auto b = static_cast<unsigned>((a + 1 + rng.next_below(3)) % 4);
  const std::uint32_t w = kSplit[rng.next_below(3)];
  v[a] += 65536 - w;
  v[b] += w;
  return v;
}

enum class DdsShape { kClustered, kConstant, kMostlyConstant };

std::vector<phase::ProcessorTrace> random_procs(
    std::uint64_t seed, const std::vector<unsigned>& lengths,
    DdsShape shape) {
  Rng rng(seed);
  std::vector<phase::ProcessorTrace> procs(lengths.size());
  for (std::size_t p = 0; p < lengths.size(); ++p) {
    procs[p].node = static_cast<NodeId>(p);
    for (unsigned i = 0; i < lengths[p]; ++i) {
      phase::IntervalRecord r;
      r.bbv = pattern_bbv(rng);
      switch (shape) {
        case DdsShape::kClustered:
          r.dds = 1e5 * static_cast<double>(rng.next_below(3) + 1) +
                  rng.uniform_real(0, 2e4);
          break;
        case DdsShape::kConstant:
          r.dds = 4096.0;
          break;
        case DdsShape::kMostlyConstant:
          r.dds = rng.next_below(10) == 0 ? 9000.0 : 3000.0;
          break;
      }
      r.cpi = rng.uniform_real(0.5, 3.0);
      r.instructions = 10'000;
      r.cycles = static_cast<Cycle>(r.cpi * 10'000);
      procs[p].intervals.push_back(std::move(r));
    }
  }
  return procs;
}

TEST(CurveRefDiffTest, RandomizedTiedDistancesMatchReference) {
  CurveParams cp;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto procs =
        random_procs(seed, {60, 45, 70, 52, 38}, DdsShape::kClustered);
    expect_sweeps_match(procs, cp, "seed " + std::to_string(seed));
  }
}

TEST(CurveRefDiffTest, SmallFootprintLruReplacementMatchesReference) {
  CurveParams cp;
  cp.footprint_capacity = 4;
  const auto procs =
      random_procs(11, {80, 64, 72, 40}, DdsShape::kClustered);
  // The sweep must actually evict: at the tightest BBV threshold every
  // distinct pattern is its own phase, more than four of them.
  EXPECT_GT(bbv_cov_curve(procs, cp).front().mean_phases, 4.0);
  expect_sweeps_match(procs, cp, "capacity 4");
}

TEST(CurveRefDiffTest, ConstantDdsNoiseFallbackMatchesReference) {
  CurveParams cp;
  // range == 0 (noise falls back to 1.0) and a zero median difference
  // with a non-zero range (noise falls back to range * 1e-3).
  expect_sweeps_match(random_procs(21, {50, 40, 30}, DdsShape::kConstant),
                      cp, "constant dds");
  expect_sweeps_match(
      random_procs(22, {50, 40, 30}, DdsShape::kMostlyConstant), cp,
      "mostly constant dds");
}

TEST(CurveRefDiffTest, EmptyAndSingleIntervalProcessorsMatchReference) {
  CurveParams cp;
  expect_sweeps_match(random_procs(31, {0, 1, 40, 0, 1, 25},
                                   DdsShape::kClustered),
                      cp, "mixed lengths");
  expect_sweeps_match(random_procs(32, {1, 1}, DdsShape::kClustered), cp,
                      "single intervals");
  expect_sweeps_match(random_procs(33, {0, 0}, DdsShape::kClustered), cp,
                      "all empty");
  expect_sweeps_match({}, cp, "no processors");
}

// ---- resumed replays ----

/// BBVs near one of six base buckets, with two random shares of the weight
/// moved to random buckets, so pairwise distances spread over the whole
/// range and a dense threshold sweep changes a few decisions per step.
std::vector<phase::ProcessorTrace> spread_procs(
    std::uint64_t seed, const std::vector<unsigned>& lengths) {
  Rng rng(seed);
  std::vector<phase::ProcessorTrace> procs(lengths.size());
  for (std::size_t p = 0; p < lengths.size(); ++p) {
    procs[p].node = static_cast<NodeId>(p);
    for (unsigned i = 0; i < lengths[p]; ++i) {
      phase::IntervalRecord r;
      r.bbv.assign(32, 0);
      const auto w1 = static_cast<std::uint32_t>(rng.next_below(24'000));
      const auto w2 = static_cast<std::uint32_t>(rng.next_below(24'000));
      r.bbv[rng.next_below(6)] += 65536 - w1 - w2;
      r.bbv[rng.next_below(32)] += w1;
      r.bbv[rng.next_below(32)] += w2;
      r.dds = 1e5 * static_cast<double>(rng.next_below(3) + 1) +
              rng.uniform_real(0, 2e4);
      r.cpi = rng.uniform_real(0.5, 3.0);
      r.instructions = 10'000;
      r.cycles = static_cast<Cycle>(r.cpi * 10'000);
      procs[p].intervals.push_back(std::move(r));
    }
  }
  return procs;
}

/// Where the BBV-only sweep's replays resume, by kind. The first replay
/// of a column starts at interval 0 and is not counted.
struct ResumeKinds {
  unsigned first_stride = 0;  ///< first change in (0, stride): checkpoint 0
  unsigned on_stride = 0;     ///< first change on a later stride boundary
  unsigned mid_stride = 0;    ///< first change inside a later stride
  unsigned last = 0;          ///< first change at the last interval
  unsigned none = 0;          ///< no change: the previous result is reused
  unsigned after_eviction = 0;  ///< restored a table that had evicted
};

/// Walks one processor's BBV thresholds as sweep_grid walks a DDS column,
/// resuming each replay at the first interval whose decision can change,
/// and checks every resumed replay against a replay from interval 0.
void walk_bbv_column(const std::vector<phase::IntervalRecord>& trace,
                     const CurveParams& cp, ResumeKinds& kinds) {
  const auto n = static_cast<std::uint32_t>(trace.size());
  const auto distance = [&trace](std::uint32_t i, std::uint32_t j,
                                 std::uint64_t) {
    return phase::manhattan(trace[i].bbv, trace[j].bbv);
  };
  ReplayState state, fresh_state;
  std::vector<PhaseId> assignment(n), fresh(n);
  for (unsigned k = 0; k < cp.bbv_steps; ++k) {
    const phase::Thresholds t{
        .bbv = static_cast<std::uint64_t>(ref_sweep_frac(k, cp.bbv_steps) *
                                          2.0 * cp.bbv_norm),
        .dds = 0.0};
    std::uint32_t from = 0;
    if (k > 0) {
      from = state.first_change(t.bbv);
      if (from == n) {
        ++kinds.none;
      } else if (from == n - 1) {
        ++kinds.last;
      } else if (from < kReplayStride) {
        ++kinds.first_stride;
      } else if (from % kReplayStride == 0) {
        ++kinds.on_stride;
      } else {
        ++kinds.mid_stride;
      }
      if (from < n &&
          state.marks[from / kReplayStride].counts.replacements > 0)
        ++kinds.after_eviction;
    }
    const auto want = replay_footprint(trace, false, cp.footprint_capacity,
                                       t, distance, fresh_state, fresh);
    if (from == n) {
      ASSERT_EQ(assignment, fresh) << "reused at threshold " << t.bbv;
      continue;
    }
    const auto got = replay_footprint(trace, false, cp.footprint_capacity,
                                      t, distance, state, assignment, from);
    ASSERT_EQ(assignment, fresh) << "resumed at " << from << ", threshold "
                                 << t.bbv;
    ASSERT_EQ(got.phases, want.phases);
    ASSERT_EQ(got.replacements, want.replacements);
  }
}

ResumeKinds walk_bbv_columns(const std::vector<phase::ProcessorTrace>& procs,
                             const CurveParams& cp) {
  ResumeKinds kinds;
  for (const auto& proc : procs) walk_bbv_column(proc.intervals, cp, kinds);
  return kinds;
}

TEST(CurveRefDiffTest, ResumedReplaysMatchReference) {
  CurveParams cp;
  cp.bbv_steps = 400;
  // 81-96 intervals: ten or more checkpoint strides each.
  const auto procs = spread_procs(41, {96, 81, 90, 88});
  const ResumeKinds kinds = walk_bbv_columns(procs, cp);
  EXPECT_GT(kinds.first_stride, 0u);
  EXPECT_GT(kinds.on_stride, 0u);
  EXPECT_GT(kinds.mid_stride, 0u);
  EXPECT_GT(kinds.last, 0u);
  EXPECT_GT(kinds.none, 0u);
  // The BBV+DDV grid also starts a new DDS column after each one.
  expect_sweeps_match(procs, cp, "dense thresholds");
}

TEST(CurveRefDiffTest, ResumeAcrossLruReplacementsMatchesReference) {
  CurveParams cp;
  cp.bbv_steps = 400;
  cp.footprint_capacity = 4;
  const auto procs = spread_procs(43, {96, 81, 90});
  const ResumeKinds kinds = walk_bbv_columns(procs, cp);
  EXPECT_GT(kinds.after_eviction, 0u);
  EXPECT_GT(kinds.mid_stride, 0u);
  expect_sweeps_match(procs, cp, "dense thresholds, capacity 4");
}

TEST(CurveRefDiffTest, MachineTraceMatchesReference) {
  const auto& app = apps::app_by_name("FMM");
  MachineConfig cfg = default_config(8);
  cfg.phase.interval_instructions =
      apps::scaled_interval(app.name, apps::Scale::kTest);
  sim::Machine m(cfg);
  const auto run = m.run(app.factory(apps::Scale::kTest));
  ASSERT_EQ(run.procs.size(), 8u);
  ASSERT_GT(run.procs[0].intervals.size(), 1u);
  expect_sweeps_match(run.procs, CurveParams{}, "FMM/8 test");
}

}  // namespace
}  // namespace dsm::analysis
