#include "analysis/cov.hpp"

#include <map>

#include "common/assert.hpp"

namespace dsm::analysis {
namespace {

/// CPI statistics per phase, in ascending phase id.
std::map<PhaseId, RunningStat> group_by_phase(
    const std::vector<phase::IntervalRecord>& trace,
    std::span<const PhaseId> assignment) {
  DSM_ASSERT(trace.size() == assignment.size());
  std::map<PhaseId, RunningStat> groups;
  for (std::size_t i = 0; i < trace.size(); ++i)
    groups[assignment[i]].add(trace[i].cpi);
  return groups;
}

}  // namespace

std::vector<PhaseStat> per_phase_stats(
    const std::vector<phase::IntervalRecord>& trace,
    std::span<const PhaseId> assignment) {
  const auto groups = group_by_phase(trace, assignment);
  std::vector<PhaseStat> out;
  out.reserve(groups.size());
  for (const auto& [phase, stat] : groups) {
    PhaseStat ps;
    ps.phase = phase;
    ps.intervals = static_cast<std::size_t>(stat.count());
    ps.mean_cpi = stat.mean();
    ps.cov_cpi = stat.cov();
    out.push_back(ps);
  }
  return out;
}

double identifier_cov(const std::vector<phase::IntervalRecord>& trace,
                      std::span<const PhaseId> assignment) {
  std::vector<RunningStat> per_phase;
  for (const auto& [phase, stat] : group_by_phase(trace, assignment))
    per_phase.push_back(stat);
  return identifier_cov(per_phase);
}

double identifier_cov(std::span<const RunningStat> per_phase) {
  double weighted = 0.0;
  std::uint64_t total = 0;
  for (const auto& stat : per_phase) {
    weighted += stat.cov() * static_cast<double>(stat.count());
    total += stat.count();
  }
  return total == 0 ? 0.0 : weighted / static_cast<double>(total);
}

}  // namespace dsm::analysis
