#ifndef PERFBENCH_SERVE_PHASE_H_
#define PERFBENCH_SERVE_PHASE_H_

// The serve phases: an open-loop ingest schedule with a visibility watcher
// and a QueryIbs reader beside it, then a closed-loop drain — all through
// the daemon's public Submit/Flush/Snapshot/SnapshotAt/QueryIbs. Plus the
// output check (an independent lattice built from the seed) and the traced
// stage replay.

#include <cstdint>
#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "harness.h"
#include "inputs.h"
#include "serve/daemon.h"

namespace perfbench {

// One published epoch as the watcher saw it.
struct EpochSeen {
  uint64_t epoch = 0;
  uint64_t wal_sequence = 0;
  uint64_t counts_digest = 0;
  int64_t seen_ns = 0;
};

// One open-loop + drain segment: its batches in commit order, and the
// epochs the open-loop batches became visible at (ascending), from which
// the daemon's group sizes follow.
struct ServeSegment {
  Batch warmup;                 // applied, untimed, before the open loop
  uint64_t first_sequence = 0;  // WAL sequence of open_batches[0]
  std::vector<Batch> open_batches;
  std::vector<EpochSeen> open_epochs;
  std::vector<Batch> drain_batches;
};

// Serve measurements pooled over every segment of a pass.
struct ServeLoad {
  // Open loop: one entry per scheduled send / accepted batch / query.
  std::vector<double> late_ms;     // actual send - due
  std::vector<double> submit_us;   // Submit() call time
  std::vector<double> visible_ms;  // due -> first snapshot covering it
  std::vector<double> query_us;    // QueryIbs() call time
  int64_t open_sent = 0;
  int64_t open_rejected = 0;
  double open_s = 0.0;

  // Closed-loop drain.
  int64_t drain_batches = 0;
  int64_t drain_backpressure = 0;  // kResourceExhausted answers, retried
  double drain_s = 0.0;

  std::vector<ServeSegment> segments;
  RegistryTally open;   // registry changes over the open loops
  RegistryTally drain;  // ... and over the drains

  double DrainBatchesPerS() const {
    return drain_s > 0.0 ? static_cast<double>(drain_batches) / drain_s
                         : 0.0;
  }
};

// Appends one segment to `load`: one untimed warm-up batch and query (the
// phases between segments evict the daemon's working set from the caches),
// the open loop for `open_seconds` at the shape's rates, Flush, then a
// drain of `drain_batches` submitted as fast as backpressure allows, Flush.
// The daemon must be idle on entry.
void RunServeSegment(remedy::ServeDaemon& daemon, BatchSource& source,
                     const WorkloadShape& shape, double open_seconds,
                     int64_t drain_batches, ServeLoad* load);

// What a daemon served last: its newest snapshot and QueryIbs(). Captured
// before the daemon stops, so the check below can run later, outside the
// timed rounds and after the run's peak RSS is read.
struct Served {
  uint64_t wal_sequence = 0;
  uint64_t counts_digest = 0;
  uint64_t ibs_digest = 0;
  size_t ibs_regions = 0;
};
Served CaptureServed(remedy::ServeDaemon& daemon);

struct ServeCheck {
  bool sequence_ok = false;  // last snapshot covers seed + acknowledged
  bool counts_ok = false;    // independent lattice == last snapshot
  bool ibs_ok = false;       // from-scratch IdentifyIbs == QueryIbs()
  size_t acknowledged = 0;   // batches after the seed
  uint64_t counts_digest = 0;  // of the independent lattice
  uint64_t ibs_digest = 0;  // of the from-scratch IdentifyIbs
  Served served;
};

// Applies every acknowledged batch (in order, after the seed) to an
// independent lattice built from the seed and requires its CountsDigest to
// equal the last snapshot's; requires a from-scratch IdentifyIbs over the
// materialized census to digest equal to QueryIbs(); requires the last
// snapshot to cover exactly seed + acknowledged batches.
ServeCheck CheckServe(const Served& served, const ServeSeed& seed,
                      const std::vector<const Batch*>& acknowledged);

struct StageReplay {
  int groups = 0;
  int64_t batches = 0;
  // Every replayed group's CountsDigest equals the daemon's snapshot
  // after the same group.
  bool counts_match = false;
};

// Replays the open loops' batches through the stages the apply thread runs
// per group — DeltaWal::Append + Sync (a scratch log in `scratch_dir`, the
// daemon's filesystem), Hierarchy::ApplyDeltas, IncrementalIbsState::
// Identify, Hierarchy::CountsDigest, and the IBS copy into an
// EpochSnapshot — in the groups the daemon formed, at most `max_groups` of
// them, each stage under a "bench/..." span. Drain batches are applied
// between segments outside the spans. `prior` are the batches the daemon
// had applied after the seed before the first segment.
StageReplay ReplayServeStages(const ServeSeed& seed,
                              const std::vector<const Batch*>& prior,
                              const ServeLoad& load, int max_groups,
                              const std::string& scratch_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_PHASE_H_
