// classifier.hpp — offline replay of the footprint-table classification
// over a recorded interval trace.
//
// The paper examines two hundred threshold values per configuration; re-
// simulating per threshold would be wasteful and is unnecessary, because
// classification is a pure function of the recorded per-interval
// signatures. This replays the *exact* online algorithm (LRU footprint
// table included), so an online detector with the same thresholds produces
// the identical assignment — a property tests/classifier_test.cpp checks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "phase/detector.hpp"
#include "phase/interval_record.hpp"

namespace dsm::analysis {

struct ClassifiedTrace {
  std::vector<PhaseId> assignment;  ///< phase id per interval, in order
  unsigned distinct_phases = 0;     ///< phases with >= 1 interval
  std::uint64_t footprint_replacements = 0;
};

/// Classifies one processor's trace with a BBV-only (use_dds=false) or
/// BBV+DDV (use_dds=true) detector at the given thresholds.
ClassifiedTrace classify_trace(const std::vector<phase::IntervalRecord>& trace,
                               bool use_dds, unsigned footprint_capacity,
                               phase::Thresholds thresholds);

/// One footprint entry of the offline replay. Every entry the hardware
/// table allocates is an exact copy of some earlier interval's BBV, so the
/// replay stores that interval's index instead of the vector.
struct ReplayEntry {
  std::uint32_t interval = 0;
  PhaseId phase = kNoPhase;
  double dds = 0.0;
  std::uint64_t lru = 0;
};

struct ReplayCounts {
  unsigned phases = 0;  ///< ids issued; each labels >= 1 interval
  std::uint64_t replacements = 0;
};

/// Intervals between two checkpoints of a resumable replay.
inline constexpr std::uint32_t kReplayStride = 8;

/// A replay's table plus what a later replay needs to resume it.
///
/// Resuming is exact. Take a replay at thresholds (b1, d) and a second
/// one at (b2, d') with b2 > b1, where d and d' pass the same |DDS
/// differences| (as two thresholds with equal DDS pass counts do). Up to
/// the first interval i at which some compared entry passes the DDS test
/// and has a BBV distance in (b1, b2], every compared entry passes or
/// fails both tests alike. So the table, LRU ticks, phase ids and
/// assignment before i are identical. `near_min[i]` is the smallest
/// distance above the threshold among the entries compared at intervals
/// 0..i that passed the DDS test, so i is the first interval with
/// near_min[i] <= b2. Before i these minima lie above b2, so they are the
/// second replay's too; it rewrites them only from its resume point on.
struct ReplayState {
  struct Checkpoint {
    std::uint32_t entries = 0;
    ReplayCounts counts;
  };
  std::vector<ReplayEntry> table;
  /// Per interval i, the smallest BBV distance above the threshold among
  /// the entries compared at intervals 0..i that passed the DDS test;
  /// UINT64_MAX when there is none. Non-increasing in i.
  std::vector<std::uint64_t> near_min;
  /// Table and counts before every kReplayStride-th interval; checkpoint
  /// k holds its entries at saved[k * capacity].
  std::vector<ReplayEntry> saved;
  std::vector<Checkpoint> marks;

  /// The first interval whose decision can differ at BBV threshold `bbv`
  /// from the last replay, or the trace length when none can.
  std::uint32_t first_change(std::uint64_t bbv) const {
    return static_cast<std::uint32_t>(
        std::partition_point(near_min.begin(), near_min.end(),
                             [bbv](std::uint64_t m) { return m > bbv; }) -
        near_min.begin());
  }
};

/// The offline replay core: phase::FootprintTable::classify's rules over
/// interval indices. An entry is rejected when its distance exceeds
/// `t.bbv` or (with use_dds) its |DDS difference| exceeds `t.dds`; the
/// first entry with the strictly smallest distance wins; a miss fills a
/// free slot or overwrites the least-recently-used entry in place, and
/// issues the next dense phase id.
///
/// `distance(i, j, cap)` gives the BBV Manhattan distance between
/// intervals i and j (j < i): exact whenever it is <= cap, otherwise any
/// value in (cap, exact]. `assignment` receives one phase id per interval.
///
/// With `from` == 0 this replays the whole trace. Otherwise it resumes
/// `state` at the checkpoint at or before `from`, and requires that the
/// previous replay on `state` and `assignment` ran over the same trace,
/// use_dds and capacity with the same DDS pass set and a BBV threshold
/// <= t.bbv, and that from <= state.first_change(t.bbv).
template <class Distance>
ReplayCounts replay_footprint(std::span<const phase::IntervalRecord> trace,
                              bool use_dds, unsigned capacity,
                              phase::Thresholds t, Distance&& distance,
                              ReplayState& state, std::span<PhaseId> assignment,
                              std::uint32_t from = 0) {
  DSM_ASSERT(capacity > 0);
  DSM_ASSERT(assignment.size() == trace.size());
  DSM_ASSERT(trace.size() <= std::numeric_limits<std::uint32_t>::max());
  const auto n = static_cast<std::uint32_t>(trace.size());
  const std::uint32_t marks = n / kReplayStride + 1;
  auto& table = state.table;
  ReplayCounts out;
  std::uint32_t start = 0;
  if (from == 0) {
    state.near_min.resize(n);
    state.saved.resize(std::size_t{marks} * capacity);
    state.marks.resize(marks);
    table.clear();
  } else {
    DSM_ASSERT(from <= n && state.near_min.size() == n &&
               state.marks.size() == marks);
    const std::uint32_t k = from / kReplayStride;
    const auto saved = state.saved.begin() + std::size_t{k} * capacity;
    table.assign(saved, saved + state.marks[k].entries);
    out = state.marks[k].counts;
    start = k * kReplayStride;
  }
  // Each interval touches exactly one entry, so the tick before interval
  // i is i.
  std::uint64_t tick = start;
  std::uint64_t near = start == 0 ? std::numeric_limits<std::uint64_t>::max()
                                  : state.near_min[start - 1];
  for (std::uint32_t i = start; i < n; ++i) {
    if (i % kReplayStride == 0) {
      std::copy(table.begin(), table.end(),
                state.saved.begin() +
                    std::size_t{i / kReplayStride} * capacity);
      state.marks[i / kReplayStride] = {
          static_cast<std::uint32_t>(table.size()), out};
    }
    const double dds = trace[i].dds;
    ReplayEntry* best = nullptr;
    std::uint64_t best_dist = std::numeric_limits<std::uint64_t>::max();
    for (auto& e : table) {
      if (use_dds && std::abs(dds - e.dds) > t.dds) continue;
      const std::uint64_t d = distance(i, e.interval, t.bbv);
      if (d > t.bbv) {
        near = std::min(near, d);
        continue;
      }
      if (d < best_dist) {
        best_dist = d;
        best = &e;
      }
    }
    state.near_min[i] = near;
    if (best == nullptr) {
      if (table.size() < capacity) {
        best = &table.emplace_back();
      } else {
        best = &table.front();
        for (auto& e : table)
          if (e.lru < best->lru) best = &e;
        ++out.replacements;
      }
      best->interval = i;
      best->dds = dds;
      best->phase = static_cast<PhaseId>(out.phases++);
    }
    best->lru = ++tick;
    assignment[i] = best->phase;
  }
  return out;
}

}  // namespace dsm::analysis
