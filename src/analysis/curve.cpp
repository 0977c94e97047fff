#include "analysis/curve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <utility>

#include "analysis/classifier.hpp"
#include "analysis/cov.hpp"
#include "common/assert.hpp"
#include "common/stats.hpp"
#include "phase/bbv.hpp"

namespace dsm::analysis {
namespace {

/// Per-processor DDS scale anchors for the threshold sweep. The *noise
/// floor* (median absolute consecutive difference) is where thresholds
/// stop fragmenting stationary behaviour; the *range* (max - min) is where
/// the DDS constraint stops mattering. Sweeping geometrically between the
/// two covers every useful operating point regardless of each node's DDS
/// magnitude (which depends on its distance profile).
struct DdsScale {
  double noise = 0.0;
  double range = 0.0;
};

DdsScale dds_scale(const std::vector<phase::IntervalRecord>& trace) {
  DdsScale s;
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

/// Threshold for sweep position `frac` in [0, 1]: geometric from half the
/// noise floor to the full range (frac == 1 disables the DDS constraint).
double dds_threshold_at(const DdsScale& s, double frac) {
  if (frac >= 1.0) return s.range;
  const double lo = 0.5 * s.noise;
  const double hi = std::max(s.range, lo * 2.0);
  return lo * std::pow(hi / lo, frac);
}

/// Quadratic sweep position: dense resolution at small thresholds, where
/// phase counts change fastest.
double sweep_frac(unsigned k, unsigned steps) {
  if (steps <= 1) return 1.0;
  const double f = static_cast<double>(k) / (steps - 1);
  return f * f;
}

/// The BBV axis: bbv_steps thresholds over the normalized-Manhattan range.
std::vector<std::uint64_t> bbv_thresholds(const CurveParams& p) {
  const double max_dist = 2.0 * p.bbv_norm;
  std::vector<std::uint64_t> out;
  out.reserve(p.bbv_steps);
  for (unsigned k = 0; k < p.bbv_steps; ++k)
    out.push_back(
        static_cast<std::uint64_t>(sweep_frac(k, p.bbv_steps) * max_dist));
  return out;
}

/// For each threshold, how many of the added values pass it (value <=
/// threshold). The passing values are a prefix of the sorted values, so
/// two thresholds with equal counts pass exactly the same values.
template <class T>
class PassCounts {
 public:
  void reset(std::span<const T> thresholds) {
    sorted_.assign(thresholds.begin(), thresholds.end());
    std::sort(sorted_.begin(), sorted_.end());
    below_.assign(sorted_.size() + 1, 0);
  }
  /// A value passes exactly the sorted thresholds from its bucket on.
  void add(T v) { ++below_[bucket(v)]; }
  /// Counts per threshold, in the order reset() was given them.
  void counts(std::span<const T> thresholds,
              std::vector<std::uint64_t>& out) {
    for (std::size_t k = 1; k < below_.size(); ++k) below_[k] += below_[k - 1];
    out.clear();
    for (const T t : thresholds) out.push_back(below_[bucket(t)]);
  }

 private:
  std::size_t bucket(T v) const {
    return static_cast<std::size_t>(
        std::lower_bound(sorted_.begin(), sorted_.end(), v) - sorted_.begin());
  }
  std::vector<T> sorted_;
  std::vector<std::uint64_t> below_;
};

/// Lower triangle of one processor's pairwise BBV Manhattan distances:
/// row i holds d(i, j) for every j < i. Distances saturate at the uint32
/// maximum, which lies above every swept threshold, so a saturated entry
/// is rejected exactly as the true distance would be.
struct DistanceTriangle {
  const std::uint32_t* cells;
  std::uint64_t operator()(std::uint32_t i, std::uint32_t j,
                           std::uint64_t /*cap*/) const {
    return cells[static_cast<std::size_t>(i) * (i - 1) / 2 + j];
  }
};

/// One processor's classification at one grid point.
struct ProcResult {
  double cov = 0.0;
  unsigned phases = 0;
};

/// Per-point sums over processors, added in processor order.
struct PointSums {
  double cov = 0.0;
  double phases = 0.0;
  double tuning = 0.0;
};

/// Evaluates the (bbv_thrs x dds_fracs) grid on every processor's trace,
/// averaging per-processor identifier CoVs and phase counts over the
/// non-empty processors. The points are returned bbv-major.
///
/// Each processor's pairwise distances are computed once into a triangle
/// that the replay reads instead of recomputing Manhattan distances.
/// Classification depends on the thresholds only through which pairwise
/// BBV distances and |DDS differences| pass them, so each grid point is
/// keyed by the two pass counts and each distinct key is classified once.
///
/// Keys are walked DDS-major: by DDS pass count, then by BBV pass count.
/// Consecutive keys of one DDS column pass the same DDS differences and
/// differ only by a higher BBV threshold, so each replay resumes the
/// previous one at its first interval whose decision can change
/// (ReplayState::first_change), or reuses its result when there is none.
/// The resumed replay is the full replay bit for bit (see ReplayState),
/// and every per-point sum still adds processors 0..P-1 in order, so the
/// result is the per-point evaluation bit for bit.
std::vector<CurvePoint> sweep_grid(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p,
    bool use_dds, std::span<const std::uint64_t> bbv_thrs,
    std::span<const double> dds_fracs) {
  // Thresholds top out at 2 * bbv_norm; the triangle's saturated cells
  // must stay above them.
  DSM_ASSERT(2ull * p.bbv_norm < std::numeric_limits<std::uint32_t>::max());
  const std::size_t grid = bbv_thrs.size() * dds_fracs.size();
  std::vector<PointSums> sums(grid);
  unsigned counted = 0;

  // Scratch reused across processors: one triangle live at a time.
  std::vector<std::uint32_t> triangle;
  PassCounts<std::uint64_t> bbv_pass;
  PassCounts<double> dds_pass;
  std::vector<std::uint64_t> bbv_counts, dds_counts;
  std::vector<double> dds_thrs(dds_fracs.size(), 0.0);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys(grid);
  std::vector<std::uint32_t> order(grid);
  std::vector<ProcResult> results(grid);
  ReplayState state;
  std::vector<PhaseId> assignment;
  std::vector<RunningStat> per_phase;

  for (const auto& proc : procs) {
    const auto& trace = proc.intervals;
    if (trace.empty()) continue;
    ++counted;
    const std::size_t n = trace.size();

    triangle.resize(n * (n - 1) / 2);
    bbv_pass.reset(bbv_thrs);
    for (std::size_t i = 1; i < n; ++i) {
      std::uint32_t* row = triangle.data() + i * (i - 1) / 2;
      for (std::size_t j = 0; j < i; ++j) {
        const std::uint64_t d = phase::manhattan(trace[i].bbv, trace[j].bbv);
        row[j] = static_cast<std::uint32_t>(std::min<std::uint64_t>(
            d, std::numeric_limits<std::uint32_t>::max()));
        bbv_pass.add(row[j]);
      }
    }
    bbv_pass.counts(bbv_thrs, bbv_counts);

    if (use_dds) {
      for (const auto& rec : trace) DSM_ASSERT(std::isfinite(rec.dds));
      const DdsScale scale = dds_scale(trace);
      for (std::size_t j = 0; j < dds_fracs.size(); ++j) {
        dds_thrs[j] = dds_threshold_at(scale, dds_fracs[j]);
        DSM_ASSERT(!std::isnan(dds_thrs[j]));
      }
      dds_pass.reset(dds_thrs);
      for (std::size_t i = 1; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
          dds_pass.add(std::abs(trace[i].dds - trace[j].dds));
      dds_pass.counts(dds_thrs, dds_counts);
    } else {
      dds_counts.assign(dds_fracs.size(), 0);
    }

    for (std::size_t g = 0; g < grid; ++g) {
      keys[g] = {dds_counts[g % dds_fracs.size()],
                 bbv_counts[g / dds_fracs.size()]};
      order[g] = static_cast<std::uint32_t>(g);
    }
    std::sort(order.begin(), order.end(),
              [&keys](std::uint32_t a, std::uint32_t b) {
                return keys[a] < keys[b];
              });

    assignment.resize(n);
    for (std::size_t r = 0; r < grid; ++r) {
      const std::uint32_t g = order[r];
      const phase::Thresholds t{.bbv = bbv_thrs[g / dds_fracs.size()],
                                .dds = dds_thrs[g % dds_fracs.size()]};
      // A new DDS column replays from interval 0.
      std::uint32_t from = 0;
      if (r > 0 && keys[order[r - 1]].first == keys[g].first) {
        from = state.first_change(t.bbv);
        if (from == n) {
          results[g] = results[order[r - 1]];
          continue;
        }
      }
      const ReplayCounts c =
          replay_footprint(trace, use_dds, p.footprint_capacity, t,
                           DistanceTriangle{triangle.data()}, state,
                           assignment, from);
      per_phase.assign(c.phases, RunningStat{});
      for (std::size_t i = 0; i < n; ++i)
        per_phase[assignment[i]].add(trace[i].cpi);
      results[g] = {identifier_cov(per_phase), c.phases};
    }

    for (std::size_t g = 0; g < grid; ++g) {
      sums[g].cov += results[g].cov;
      sums[g].phases += results[g].phases;
      sums[g].tuning += std::min(
          1.0, static_cast<double>(results[g].phases) * p.tuning_trials / n);
    }
  }

  std::vector<CurvePoint> out(grid);
  for (std::size_t g = 0; g < grid; ++g) {
    CurvePoint& pt = out[g];
    pt.thresholds.bbv = bbv_thrs[g / dds_fracs.size()];
    pt.thresholds.dds = dds_fracs[g % dds_fracs.size()];
    if (counted > 0) {
      pt.mean_cov = sums[g].cov / counted;
      pt.mean_phases = sums[g].phases / counted;
      pt.tuning_fraction = sums[g].tuning / counted;
    }
  }
  return out;
}

}  // namespace

std::vector<CurvePoint> bbv_cov_curve(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p) {
  const double no_dds[] = {0.0};
  return sweep_grid(procs, p, /*use_dds=*/false, bbv_thresholds(p), no_dds);
}

std::vector<CurvePoint> bbv_ddv_cov_points(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p) {
  // Full bbv resolution on one axis and the dds sweep on the other. The
  // dds sweep includes frac == 1.0 (threshold = the full observed DDS
  // range), which degenerates to the BBV baseline — so the lower envelope
  // of this grid can never lie above the baseline curve. Each point's
  // thresholds.dds records the relative setting (the sweep fraction).
  std::vector<double> dds_fracs;
  for (unsigned j = 0; j < p.dds_steps; ++j)
    dds_fracs.push_back(p.dds_steps <= 1
                            ? 1.0
                            : static_cast<double>(j) / (p.dds_steps - 1));
  return sweep_grid(procs, p, /*use_dds=*/true, bbv_thresholds(p),
                    dds_fracs);
}

std::vector<CurvePoint> lower_envelope(std::vector<CurvePoint> points) {
  // Bucket phase counts at 0.5 resolution; keep the min-CoV point of each.
  std::map<long, CurvePoint> best;
  for (const auto& pt : points) {
    const long bucket = std::lround(pt.mean_phases * 2.0);
    const auto it = best.find(bucket);
    if (it == best.end() || pt.mean_cov < it->second.mean_cov)
      best[bucket] = pt;
  }
  std::vector<CurvePoint> out;
  out.reserve(best.size());
  for (const auto& [bucket, pt] : best) out.push_back(pt);
  std::sort(out.begin(), out.end(),
            [](const CurvePoint& a, const CurvePoint& b) {
              return a.mean_phases < b.mean_phases;
            });
  return out;
}

std::vector<CurvePoint> bbv_ddv_cov_curve(
    const std::vector<phase::ProcessorTrace>& procs, const CurveParams& p) {
  return lower_envelope(bbv_ddv_cov_points(procs, p));
}

double cov_at_phases(const std::vector<CurvePoint>& curve, double phases) {
  DSM_ASSERT(!curve.empty());
  // Staircase reading: the best CoV the detector delivers within a budget
  // of `phases` phases. Robust to gaps in the swept phase counts (the
  // threshold->phases map is steppy for near-degenerate BBVs).
  double best = std::numeric_limits<double>::infinity();
  double smallest_phases = std::numeric_limits<double>::infinity();
  double cov_at_smallest = 0.0;
  for (const auto& pt : curve) {
    if (pt.mean_phases <= phases) best = std::min(best, pt.mean_cov);
    if (pt.mean_phases < smallest_phases) {
      smallest_phases = pt.mean_phases;
      cov_at_smallest = pt.mean_cov;
    }
  }
  // Budget below every achievable operating point: report the coarsest one.
  return std::isinf(best) ? cov_at_smallest : best;
}

double phases_for_cov(const std::vector<CurvePoint>& curve,
                      double target_cov) {
  double best = 1e9;
  for (const auto& pt : curve) {
    if (pt.mean_cov <= target_cov) best = std::min(best, pt.mean_phases);
  }
  return best;
}

}  // namespace dsm::analysis
