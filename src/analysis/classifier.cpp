#include "analysis/classifier.hpp"

#include "phase/bbv.hpp"

namespace dsm::analysis {

ClassifiedTrace classify_trace(const std::vector<phase::IntervalRecord>& trace,
                               bool use_dds, unsigned footprint_capacity,
                               phase::Thresholds thresholds) {
  ClassifiedTrace out;
  out.assignment.resize(trace.size());
  ReplayState state;
  state.table.reserve(footprint_capacity);
  const auto counts = replay_footprint(
      trace, use_dds, footprint_capacity, thresholds,
      [&trace](std::uint32_t i, std::uint32_t j, std::uint64_t cap) {
        return phase::manhattan_capped(trace[i].bbv, trace[j].bbv, cap);
      },
      state, out.assignment);
  out.distinct_phases = counts.phases;
  out.footprint_replacements = counts.replacements;
  return out;
}

}  // namespace dsm::analysis
