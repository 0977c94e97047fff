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

/// The offline replay core: phase::FootprintTable::classify's rules over
/// interval indices. An entry is rejected when its distance exceeds
/// `t.bbv` or (with use_dds) its |DDS difference| exceeds `t.dds`; the
/// first entry with the strictly smallest distance wins; a miss fills a
/// free slot or overwrites the least-recently-used entry in place, and
/// issues the next dense phase id.
///
/// `distance(i, j, cap)` gives the BBV Manhattan distance between
/// intervals i and j (j < i): exact whenever it is <= cap, any value > cap
/// otherwise. `table` is caller-owned scratch; `assignment` receives one
/// phase id per interval.
template <class Distance>
ReplayCounts replay_footprint(std::span<const phase::IntervalRecord> trace,
                              bool use_dds, unsigned capacity,
                              phase::Thresholds t, Distance&& distance,
                              std::vector<ReplayEntry>& table,
                              std::span<PhaseId> assignment) {
  DSM_ASSERT(capacity > 0);
  DSM_ASSERT(assignment.size() == trace.size());
  DSM_ASSERT(trace.size() <= std::numeric_limits<std::uint32_t>::max());
  table.clear();
  ReplayCounts out;
  std::uint64_t tick = 0;
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    const double dds = trace[i].dds;
    ReplayEntry* best = nullptr;
    std::uint64_t best_dist = std::numeric_limits<std::uint64_t>::max();
    for (auto& e : table) {
      const std::uint64_t d = distance(i, e.interval, t.bbv);
      if (d > t.bbv) continue;
      if (use_dds && std::abs(dds - e.dds) > t.dds) continue;
      if (d < best_dist) {
        best_dist = d;
        best = &e;
      }
    }
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
