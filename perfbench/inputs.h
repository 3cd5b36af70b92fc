#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// The two workloads and the inputs each one generates from its seed.
//
// Every workload runs the same four phases — serve open loop, serve drain,
// batch audit, and the audit -> remedy -> train/eval pipeline — on inputs
// of one shape, so every run reports every end-to-end metric:
//
//   x8     the serve_steady synthetic: |X| = 8 protected attributes of
//          cardinality 4 (65,536 leaves, 390,625 regions). Big lattice,
//          batches of 1k row changes at 5/s: per-epoch identify,
//          CountsDigest and the IBS copy dominate an epoch; the WAL is a
//          small share.
//   adult  the Adult census generator. The daemon serves its 6 protected
//          attributes (a small lattice) under 125 tiny batches/s, so the
//          queue, WAL append and fsync take a large share, and drains group
//          tens of batches per commit. Audit and pipeline widen X to
//          AdultScalabilityProtected(8), the paper's Fig. 9 set.
//
// The open-loop rates keep the apply thread well below saturation: nearer
// to it, queueing amplified the host's speed drift into run-to-run spreads
// of the latency percentiles several times the benchmark's bounds.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hierarchy.h"
#include "core/ibs_identify.h"
#include "core/region_counter.h"
#include "data/columnar.h"
#include "data/dataset.h"
#include "data/schema.h"
#include "serve/daemon.h"

namespace perfbench {

struct WorkloadShape {
  std::string name;
  bool adult = false;
  // Serve phases.
  int serve_rows = 0;        // rows behind the daemon's seed census
  double ingest_rate = 0.0;  // open-loop batches per second
  double query_rate = 0.0;   // reader QueryIbs() calls per second
  // Nominal closed-loop throughput, used only to size each drain as a fixed
  // number of batches (fixed work keeps the measurement comparable when
  // the daemon gets faster or slower).
  double drain_pace = 0.0;
  // Batch phases.
  int64_t audit_rows = 0;  // rows of the store-backed audit input
  int pipeline_rows = 0;   // rows before the 70/30 split
};

// The named workload; `scale` (1.0 for real runs) shrinks every row count
// for the self-check. Returns false for an unknown name.
bool ShapeFor(const std::string& name, double scale, WorkloadShape* shape);

// Library defaults everywhere except tau_c = 0.5, the paper's Adult
// setting.
remedy::IbsParams BenchIbsParams();

// The daemon's seed: the leaf census of the generated serve input.
struct ServeSeed {
  remedy::DataSchema schema;
  remedy::NodeTable leaves;
  remedy::RegionCounts totals;
  std::vector<uint64_t> leaf_keys;  // ascending, every populated leaf
};

using Batch = std::vector<remedy::Hierarchy::LeafDelta>;

// Deterministic, stationary stream of ingest batches over the seed's
// leaves. Each batch inserts fresh rows and retracts the insertions of the
// batch `window` acknowledged batches back, so the live lattice stays the
// seed plus a sliding window of inserts instead of drifting over a run.
// x8: 500 rows over 4 leaves in, 500 out (1k row changes over 8 leaves, the
// serve_steady batch size); adult: 1-2 leaves with 0-3 positives and
// negatives each in, the same out (the remedy_serve --demo batch size).
// Deltas are pre-aggregated per leaf, and a retraction only ever removes
// rows an acknowledged batch added, so no batch can fail validation.
class BatchSource {
 public:
  BatchSource(const ServeSeed& seed, const WorkloadShape& shape,
              uint64_t rng_seed);

  // The next batch. Settle() must report its fate before the next call.
  Batch Next();
  // Whether the daemon acknowledged the batch Next() returned last.
  void Settle(bool acknowledged);
  // Acknowledged batches after which retractions begin.
  size_t window() const { return window_; }

 private:
  const std::vector<uint64_t>& keys_;
  bool adult_;
  size_t window_;
  remedy::Rng rng_;
  std::deque<Batch> live_;  // inserts of acknowledged batches, oldest first
  Batch pending_insert_;
  std::optional<Batch> pending_retract_;
};

// Submits `batch`, retrying after a short pause for as long as the daemon
// answers with backpressure (kResourceExhausted); dies on any other error.
// Returns the number of backpressure answers.
int64_t SubmitThroughBackpressure(remedy::ServeDaemon& daemon,
                                  const Batch& batch);

// Everything one set-up produces: generated inputs, plus a daemon started
// on a fresh state directory and seeded with the serve census.
struct Setup {
  ServeSeed seed;
  remedy::ColumnarShardStore audit_store;
  remedy::Dataset train;
  remedy::Dataset test;
  std::unique_ptr<BatchSource> source;  // positioned after the warm-up
  std::vector<Batch> warmup;  // acknowledged after the seed, before timing
  std::string state_dir;
  std::unique_ptr<remedy::ServeDaemon> daemon;
  double setup_s = 0.0;
  double datagen_s = 0.0;  // the datagen calls inside setup_s
};

// Generates the inputs from `seed`, starts the daemon in `state_dir` (which
// must not exist) with library-default ServeOptions except the IBS
// threshold, submits + flushes the seed census, then one window of batches
// so the stream starts in its steady state. Dies on failure.
std::unique_ptr<Setup> RunSetup(const WorkloadShape& shape, uint64_t seed,
                                const std::string& state_dir);

// Stops the daemon and removes its state directory.
void TearDown(Setup& setup);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
