// timeline.hpp — phase-attributed rendering of the `obs_intervals`
// envelope field (`dsm_report timeline`).
//
// A record's interval timeline (obs/metrics.hpp intervals_json: one row
// of counter deltas per phase-detector interval boundary, each tagged
// with the online-detected phase id of the processor that closed it) is
// rendered four ways per record:
//   * the interval × metric series itself (the top-k metrics by total
//     delta — a 64-node machine tracks hundreds of per-link counters,
//     so the full matrix is CSV/Chrome territory, not a terminal table),
//   * per-phase aggregation: interval count and per-metric means for
//     every detected phase id,
//   * the phase-transition matrix over successive boundaries,
//   * the top-k metric-mean deltas between the phases of the most
//     frequent transition — "what actually changes when the program
//     moves between its two dominant behaviors".
// When the record also carries the end-of-run `obs` snapshot and no ring
// rows were dropped, the summed row deltas plus the open tail are
// reconciled against the snapshot exactly — a failed reconciliation is
// an exit-1 diagnostic, because it means the capture mechanism lost
// counts somewhere.
//
// With `chrome_path` set, the timeline is additionally emitted as Chrome
// trace counter ("C") events — one counter track per rendered metric
// plus a "phase" track, pid = spec_index — so it overlays the event
// traces `dsm_report trace` converts (same 1 cycle = 1 µs time base).
#pragma once

#include <cstdio>
#include <string>

#include "shard/line_merge.hpp"

namespace dsm::report {

struct TimelineOptions {
  unsigned top_k = 8;        ///< metrics rendered, by total delta
  unsigned max_rows = 40;    ///< interval rows printed per record
  std::string chrome_path;   ///< when set, also write counter events here
};

/// Renders the timeline of every record in `source` carrying an
/// `obs_intervals` field to `out`. Returns the process exit code: 0 on
/// success, 1 when the stream is invalid, no record carries a timeline,
/// or a timeline fails reconciliation (diagnostics on stderr).
int render_timeline(shard::LineSource& source, const TimelineOptions& opt,
                    std::FILE* out);

}  // namespace dsm::report
