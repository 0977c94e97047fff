// cov.hpp — the paper's evaluation metric (§II): for each phase, the CoV
// of the per-interval CPI values in it; the *identifier CoV* is the
// average of the per-phase CoVs weighted by how many intervals belong to
// each phase. Perfectly homogeneous phases give 0.
#pragma once

#include <span>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "phase/interval_record.hpp"

namespace dsm::analysis {

/// Per-phase statistics underlying the identifier CoV.
struct PhaseStat {
  PhaseId phase = kNoPhase;
  std::size_t intervals = 0;
  double mean_cpi = 0.0;
  double cov_cpi = 0.0;
};

/// Per-phase breakdown for a classified trace.
std::vector<PhaseStat> per_phase_stats(
    const std::vector<phase::IntervalRecord>& trace,
    std::span<const PhaseId> assignment);

/// Identifier CoV of CPI: interval-weighted mean of per-phase CoVs.
double identifier_cov(const std::vector<phase::IntervalRecord>& trace,
                      std::span<const PhaseId> assignment);

/// The same weighted mean from per-phase CPI statistics, summed in the
/// order given (ascending phase id gives the overload above bit for bit).
double identifier_cov(std::span<const RunningStat> per_phase);

}  // namespace dsm::analysis
