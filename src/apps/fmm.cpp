#include "apps/fmm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sim/thread_ctx.hpp"

namespace dsm::apps {
namespace {

constexpr BlockId kBbBin = sim::bb_id("fmm.bin");
constexpr BlockId kBbP2m = sim::bb_id("fmm.p2m");
constexpr BlockId kBbM2m = sim::bb_id("fmm.m2m");
constexpr BlockId kBbM2l = sim::bb_id("fmm.m2l");
constexpr BlockId kBbL2l = sim::bb_id("fmm.l2l");
constexpr BlockId kBbL2p = sim::bb_id("fmm.l2p");
constexpr BlockId kBbDirect = sim::bb_id("fmm.direct");
constexpr BlockId kBbAdvance = sim::bb_id("fmm.advance");

constexpr std::uint64_t kParticleBytes = 32;  ///< pos + vel, one line
constexpr std::uint64_t kCellBytes = 160;     ///< multipole + local + meta

struct FmmShared {
  // Host-side physics (drives which simulated addresses get touched).
  std::vector<double> cx, cy;        ///< cluster-relative offsets
  std::vector<unsigned> cluster_of;  ///< particle -> cluster
  std::vector<double> px, py;        ///< absolute positions, in [0,1)
  std::vector<std::vector<std::uint32_t>> leaf_particles;

  // Simulated layout.
  std::vector<Addr> particle_addr;          ///< per particle
  std::vector<Addr> level_base;             ///< per level (index = level)
  std::vector<unsigned> first_particle;     ///< per proc, chunk start
  /// Costzones: per-step leaf partition (leaf_begin[p] .. leaf_begin[p+1])
  /// balancing the direct-interaction cost, as SPLASH-2 FMM repartitions
  /// every step. Ownership follows the clusters while the *homes* of cell
  /// and particle memory stay fixed — so each processor's home-access mix
  /// drifts step to step.
  std::vector<std::uint64_t> leaf_begin;        ///< direct-phase zones
  std::vector<std::uint64_t> leaf_begin_linear; ///< P2M/L2P zones
  std::vector<Addr> bin_buffer;  ///< per-proc node-local binning scratch
  /// Per-level M2L partition balanced by interaction-source count (edge
  /// cells have clipped lists, so uniform chunks stall the whole machine
  /// at the post-M2L barrier). Computed once: the cost is pure geometry.
  std::vector<std::vector<std::uint64_t>> m2l_begin;
  unsigned leaf_level = 0;
  unsigned min_level = 0;
};

Addr cell_addr(const FmmShared& s, unsigned level, unsigned x, unsigned y) {
  const unsigned side = 1u << level;
  return s.level_base[level] +
         kCellBytes * (static_cast<std::uint64_t>(y) * side + x);
}

unsigned leaf_index(const FmmShared& s, double x, double y) {
  const unsigned side = 1u << s.leaf_level;
  auto clampc = [&](double v) {
    auto c = static_cast<long>(v * side);
    return static_cast<unsigned>(std::clamp<long>(c, 0, side - 1));
  };
  return clampc(y) * side + clampc(x);
}

/// Absolute positions from cluster geometry at time-step `step`.
void update_positions(FmmShared& s, const FmmParams& p, unsigned step) {
  const double theta = p.orbit_per_step * step;
  for (std::size_t i = 0; i < s.px.size(); ++i) {
    const unsigned c = s.cluster_of[i];
    const double base = 2.0 * M_PI * c / p.clusters + theta;
    const double ccx = 0.5 + 0.3 * std::cos(base);
    const double ccy = 0.5 + 0.3 * std::sin(base);
    double x = ccx + s.cx[i];
    double y = ccy + s.cy[i];
    x -= std::floor(x);  // wrap into the unit box
    y -= std::floor(y);
    s.px[i] = x;
    s.py[i] = y;
  }
}

/// Refills the per-leaf particle lists in place, so each step reuses the
/// lists' storage instead of reallocating it.
void rebuild_leaf_lists(FmmShared& s) {
  const unsigned side = 1u << s.leaf_level;
  s.leaf_particles.resize(std::size_t{side} * side);
  for (auto& leaf : s.leaf_particles) leaf.clear();
  for (std::uint32_t i = 0; i < s.px.size(); ++i)
    s.leaf_particles[leaf_index(s, s.px[i], s.py[i])].push_back(i);
}


/// Number of well-separated same-level interaction sources of cell (x, y).
unsigned m2l_sources(unsigned level, int x, int y) {
  const int sd = 1 << level;
  const int px_ = x / 2, py_ = y / 2;
  unsigned n = 0;
  for (int ny = (py_ - 1) * 2; ny <= (py_ + 1) * 2 + 1; ++ny)
    for (int nx = (px_ - 1) * 2; nx <= (px_ + 1) * 2 + 1; ++nx) {
      if (nx < 0 || ny < 0 || nx >= sd || ny >= sd) continue;
      if (std::abs(nx - x) <= 1 && std::abs(ny - y) <= 1) continue;
      ++n;
    }
  return n;
}

/// Contiguous zones of approximately equal total M2L cost at one level.
std::vector<std::uint64_t> m2l_costzones(unsigned level, unsigned nprocs) {
  const unsigned sd = 1u << level;
  const std::uint64_t cells = std::uint64_t{sd} * sd;
  double total = 0.0;
  for (std::uint64_t c = 0; c < cells; ++c)
    total += 1.0 + m2l_sources(level, static_cast<int>(c % sd),
                               static_cast<int>(c / sd));
  std::vector<std::uint64_t> begin;
  begin.reserve(nprocs + 1);
  begin.push_back(0);
  double acc = 0.0;
  for (std::uint64_t c = 0; c < cells && begin.size() < nprocs; ++c) {
    acc += 1.0 + m2l_sources(level, static_cast<int>(c % sd),
                             static_cast<int>(c / sd));
    if (acc >= total * begin.size() / nprocs) begin.push_back(c + 1);
  }
  while (begin.size() <= nprocs) begin.push_back(cells);
  return begin;
}

/// Generic contiguous-zone split of the row-major leaf order by a
/// per-leaf cost function.
template <typename CostFn>
std::vector<std::uint64_t> leaf_zones(const FmmShared& s, unsigned nprocs,
                                      CostFn cost) {
  const std::size_t leaves = s.leaf_particles.size();
  double total = 0.0;
  for (std::size_t i = 0; i < leaves; ++i) total += cost(i);
  std::vector<std::uint64_t> begin;
  begin.reserve(nprocs + 1);
  begin.push_back(0);
  double acc = 0.0;
  for (std::size_t i = 0; i < leaves && begin.size() < nprocs; ++i) {
    acc += cost(i);
    if (acc >= total * begin.size() / nprocs) begin.push_back(i + 1);
  }
  while (begin.size() <= nprocs) begin.push_back(leaves);
  return begin;
}

/// SPLASH-2-style costzones, one partition per phase cost shape: the
/// direct phase pays per particle *pair* in the 3x3 neighbourhood, the
/// expansion phases pay per particle.
void compute_costzones(FmmShared& s, unsigned nprocs) {
  const unsigned side = 1u << s.leaf_level;
  auto count = [&](long x, long y) -> double {
    if (x < 0 || y < 0 || x >= long{side} || y >= long{side}) return 0.0;
    return static_cast<double>(
        s.leaf_particles[static_cast<std::size_t>(y) * side + x].size());
  };
  s.leaf_begin = leaf_zones(s, nprocs, [&](std::size_t i) {
    const long x = static_cast<long>(i % side);
    const long y = static_cast<long>(i / side);
    double nbr = 0.0;
    for (long dy = -1; dy <= 1; ++dy)
      for (long dx = -1; dx <= 1; ++dx) nbr += count(x + dx, y + dy);
    return 4.0 + 10.0 * count(x, y) * nbr;
  });
  // One partition serves P2M/L2P and direct: splitting them lowers
  // barrier waits slightly but doubles the cell/particle hand-offs between
  // phases, which costs more than it saves (measured).
  s.leaf_begin_linear = s.leaf_begin;
}

}  // namespace

sim::AppFn make_fmm(const FmmParams& p) {
  DSM_ASSERT(p.min_level >= 1 && p.min_level < p.leaf_log2);
  auto shared = std::make_shared<FmmShared>();

  // Host-side physics, built here on the caller's thread, before any
  // simulated processor runs.
  {
    FmmShared& s = *shared;
    s.leaf_level = p.leaf_log2;
    s.min_level = p.min_level;
    Rng rng(0xf33dULL);
    s.cx.resize(p.particles);
    s.cy.resize(p.particles);
    s.cluster_of.resize(p.particles);
    s.px.resize(p.particles);
    s.py.resize(p.particles);
    for (unsigned i = 0; i < p.particles; ++i) {
      s.cluster_of[i] = static_cast<unsigned>(rng.next_below(p.clusters));
      s.cx[i] = rng.normal(0.0, p.cluster_spread);
      s.cy[i] = rng.normal(0.0, p.cluster_spread);
    }
    update_positions(s, p, 0);

    // Sort particles by initial leaf so contiguous chunks are spatially
    // local, then hand chunk i to processor i (SPLASH-2-style ORB
    // stand-in).
    std::vector<std::uint32_t> order(p.particles);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return leaf_index(s, s.px[a], s.py[a]) <
                       leaf_index(s, s.px[b], s.py[b]);
              });
    auto permute = [&](auto& v) {
      auto tmp = v;
      for (std::size_t i = 0; i < order.size(); ++i) tmp[i] = v[order[i]];
      v = std::move(tmp);
    };
    permute(s.cx);
    permute(s.cy);
    permute(s.cluster_of);
    update_positions(s, p, 0);
    rebuild_leaf_lists(s);
    s.particle_addr.resize(p.particles);
  }

  return [p, shared](sim::ThreadCtx& ctx) {
    FmmShared& s = *shared;
    const unsigned nprocs = ctx.nprocs();
    const NodeId me = ctx.self();
    const double ipf = p.instr_per_flop;
    auto instr = [&](double flops) {
      return static_cast<InstrCount>(std::max(1.0, flops * ipf));
    };

    // ---- one-time setup (thread 0) ----
    if (me == 0) {
      update_positions(s, p, 0);

      // Particle storage: one contiguous chunk in each owner's memory.
      s.first_particle.resize(nprocs + 1);
      for (unsigned q = 0; q <= nprocs; ++q)
        s.first_particle[q] =
            static_cast<unsigned>(std::uint64_t{p.particles} * q / nprocs);
      for (unsigned q = 0; q < nprocs; ++q) {
        const unsigned lo = s.first_particle[q], hi = s.first_particle[q + 1];
        if (lo == hi) continue;
        const Addr base = ctx.alloc_on(kParticleBytes * (hi - lo), q);
        for (unsigned i = lo; i < hi; ++i)
          s.particle_addr[i] = base + kParticleBytes * (i - lo);
      }

      // Cell storage per level, row-major chunks per owner.
      s.level_base.assign(s.leaf_level + 1, 0);
      for (unsigned lv = s.min_level; lv <= s.leaf_level; ++lv) {
        const unsigned side = 1u << lv;
        const std::uint64_t total = std::uint64_t{side} * side;
        const Addr base = ctx.alloc(kCellBytes * total);
        s.level_base[lv] = base;
        for (unsigned q = 0; q < nprocs; ++q) {
          const std::uint64_t lo = total * q / nprocs;
          const std::uint64_t hi = total * (q + 1) / nprocs;
          if (lo < hi)
            ctx.machine().home_map().place_range(
                base + kCellBytes * lo, kCellBytes * (hi - lo), q);
        }
      }
      s.bin_buffer.resize(nprocs);
      for (unsigned q = 0; q < nprocs; ++q) {
        const unsigned cnt = s.first_particle[q + 1] - s.first_particle[q];
        s.bin_buffer[q] = ctx.alloc_on(8ull * std::max(cnt, 1u), q);
      }
      rebuild_leaf_lists(s);
      compute_costzones(s, nprocs);
      s.m2l_begin.assign(s.leaf_level + 1, {});
      for (unsigned lv = s.min_level; lv <= s.leaf_level; ++lv)
        s.m2l_begin[lv] = m2l_costzones(lv, nprocs);
    }
    ctx.barrier();

    const unsigned side = 1u << s.leaf_level;
    auto owned_range = [&](unsigned level, std::uint64_t& lo,
                           std::uint64_t& hi) {
      const unsigned sd = 1u << level;
      const std::uint64_t total = std::uint64_t{sd} * sd;
      lo = total * me / nprocs;
      hi = total * (me + 1) / nprocs;
    };

    // ---- time steps ----
    for (unsigned step = 0; step < p.steps; ++step) {
      // (0) Host: refresh positions and leaf occupancy for this step.
      if (me == 0) {
        update_positions(s, p, step);
        rebuild_leaf_lists(s);
        compute_costzones(s, nprocs);
      }
      ctx.barrier();

      // (1) Binning: each processor scans its own particles and appends
      // to its node-local bin buffer (owner-local lists, as in SPLASH-2 —
      // the cross-processor communication happens in P2M/direct when the
      // costzone owner reads the particle data).
      for (unsigned i = s.first_particle[me]; i < s.first_particle[me + 1];
           ++i) {
        ctx.load(s.particle_addr[i]);
        ctx.store(s.bin_buffer[me] + 8ull * (i - s.first_particle[me]));
        ctx.bb(kBbBin, 12, 0.2);
      }
      ctx.barrier();

      // (2a) P2M at this step's costzone leaves.
      {
        const std::uint64_t lo = s.leaf_begin_linear[me];
        const std::uint64_t hi = s.leaf_begin_linear[me + 1];
        for (std::uint64_t c = lo; c < hi; ++c) {
          const Addr ca = s.level_base[s.leaf_level] + kCellBytes * c;
          for (const std::uint32_t i : s.leaf_particles[c]) {
            ctx.load(s.particle_addr[i]);
            ctx.bb(kBbP2m, instr(4.0 * p.terms), p.fp_frac);
          }
          ctx.store(ca);
          ctx.store(ca + 32);
        }
      }
      ctx.barrier();

      // (2b) M2M up the tree, one barrier per level (children first).
      for (unsigned lv = s.leaf_level; lv-- > s.min_level;) {
        std::uint64_t lo, hi;
        owned_range(lv, lo, hi);
        const unsigned sd = 1u << lv;
        for (std::uint64_t c = lo; c < hi; ++c) {
          const unsigned x = static_cast<unsigned>(c % sd);
          const unsigned y = static_cast<unsigned>(c / sd);
          for (unsigned dy = 0; dy < 2; ++dy)
            for (unsigned dx = 0; dx < 2; ++dx) {
              const Addr child =
                  cell_addr(s, lv + 1, 2 * x + dx, 2 * y + dy);
              ctx.load(child);
              ctx.load(child + 32);
            }
          ctx.bb(kBbM2m, instr(8.0 * p.terms * p.terms), p.fp_frac);
          const Addr ca = cell_addr(s, lv, x, y);
          ctx.store(ca);
          ctx.store(ca + 32);
        }
        ctx.barrier();
      }

      // (3) M2L over the well-separated interaction lists, partitioned by
      // interaction-count cost.
      for (unsigned lv = s.min_level; lv <= s.leaf_level; ++lv) {
        const std::uint64_t lo = s.m2l_begin[lv][me];
        const std::uint64_t hi = s.m2l_begin[lv][me + 1];
        const unsigned sd = 1u << lv;
        for (std::uint64_t c = lo; c < hi; ++c) {
          const int x = static_cast<int>(c % sd);
          const int y = static_cast<int>(c / sd);
          const int px_ = x / 2, py_ = y / 2;
          unsigned sources = 0;
          for (int ny = (py_ - 1) * 2; ny <= (py_ + 1) * 2 + 1; ++ny) {
            for (int nx = (px_ - 1) * 2; nx <= (px_ + 1) * 2 + 1; ++nx) {
              if (nx < 0 || ny < 0 || nx >= static_cast<int>(sd) ||
                  ny >= static_cast<int>(sd))
                continue;
              if (std::abs(nx - x) <= 1 && std::abs(ny - y) <= 1) continue;
              const Addr src = cell_addr(s, lv, static_cast<unsigned>(nx),
                                         static_cast<unsigned>(ny));
              ctx.load(src);
              ctx.load(src + 32);
              ctx.bb(kBbM2l, instr(4.0 * p.terms * p.terms), p.fp_frac);
              ++sources;
            }
          }
          if (sources > 0) {
            const Addr ca = cell_addr(s, lv, static_cast<unsigned>(x),
                                      static_cast<unsigned>(y));
            ctx.store(ca + 64);
            ctx.store(ca + 96);
          }
        }
      }
      ctx.barrier();

      // (4a) L2L down the tree, one barrier per level (parents first).
      for (unsigned lv = s.min_level + 1; lv <= s.leaf_level; ++lv) {
        std::uint64_t lo, hi;
        owned_range(lv, lo, hi);
        const unsigned sd = 1u << lv;
        for (std::uint64_t c = lo; c < hi; ++c) {
          const unsigned x = static_cast<unsigned>(c % sd);
          const unsigned y = static_cast<unsigned>(c / sd);
          const Addr parent = cell_addr(s, lv - 1, x / 2, y / 2);
          ctx.load(parent + 64);
          ctx.load(parent + 96);
          ctx.bb(kBbL2l, instr(2.0 * p.terms * p.terms), p.fp_frac);
          const Addr ca = cell_addr(s, lv, x, y);
          ctx.store(ca + 64);
          ctx.store(ca + 96);
        }
        ctx.barrier();
      }

      // (4b) L2P: evaluate local expansions at costzone leaves' particles.
      {
        const std::uint64_t lo = s.leaf_begin_linear[me];
        const std::uint64_t hi = s.leaf_begin_linear[me + 1];
        for (std::uint64_t c = lo; c < hi; ++c) {
          const Addr ca = s.level_base[s.leaf_level] + kCellBytes * c;
          ctx.load(ca + 64);
          ctx.load(ca + 96);
          for (const std::uint32_t i : s.leaf_particles[c]) {
            ctx.load(s.particle_addr[i]);
            ctx.store(s.particle_addr[i]);
            ctx.bb(kBbL2p, instr(6.0 * p.terms), p.fp_frac);
          }
        }
      }
      ctx.barrier();

      // (5) Near-field direct interactions over this step's costzones
      // (balanced load; the zone boundaries — and with them the remote
      // access mix — follow the clusters from step to step).
      {
        const std::uint64_t dlo = s.leaf_begin[me];
        const std::uint64_t dhi = s.leaf_begin[me + 1];
        for (std::uint64_t c = dlo; c < dhi; ++c) {
          const int x = static_cast<int>(c % side);
          const int y = static_cast<int>(c / side);
          const auto& own = s.leaf_particles[c];
          if (own.empty()) {
            ctx.bb(kBbDirect, 4, 0.0);
            continue;
          }
          for (const std::uint32_t i : own) ctx.load(s.particle_addr[i]);
          for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
              const int nx = x + dx, ny = y + dy;
              if (nx < 0 || ny < 0 || nx >= static_cast<int>(side) ||
                  ny >= static_cast<int>(side))
                continue;
              const auto& nbr =
                  s.leaf_particles[static_cast<std::uint64_t>(ny) * side +
                                   nx];
              if (nbr.empty()) continue;
              if (!(dx == 0 && dy == 0))
                for (const std::uint32_t j : nbr)
                  ctx.load(s.particle_addr[j]);
              ctx.bb(kBbDirect,
                     instr(10.0 * static_cast<double>(own.size()) *
                           static_cast<double>(nbr.size())),
                     p.fp_frac);
            }
          }
          for (const std::uint32_t i : own) ctx.store(s.particle_addr[i]);
        }
      }
      ctx.barrier();

      // (6) Advance owned particles.
      for (unsigned i = s.first_particle[me]; i < s.first_particle[me + 1];
           ++i) {
        ctx.load(s.particle_addr[i]);
        ctx.store(s.particle_addr[i]);
        ctx.bb(kBbAdvance, 20, 0.6);
      }
      ctx.barrier();
    }
  };
}

}  // namespace dsm::apps
