#ifndef REMEDY_CORE_REMEDY_BACKEND_H_
#define REMEDY_CORE_REMEDY_BACKEND_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/hierarchy.h"
#include "core/region_counter.h"
#include "core/remedy.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace remedy {

// The daemon's remedy write path (see docs/REMEDY.md). The daemon holds
// leaf counts, not rows, so a remedy is planned on the canonical
// materialization of a pinned epoch's leaf census (MaterializeLeafCounts
// below), run through RemedyDataset, and expressed as signed leaf-count
// deltas that ServeDaemon::SubmitRemedy commits through the WAL-backed
// group-commit path.
//
// The plan is count-faithful, not row-faithful: applied to the source
// counts, its deltas land on counts byte-identical — same FNV-1a digest —
// to running ReferenceRemedyDataset on that same materialized dataset, for
// any thread count. The randomized parity suite in
// tests/remedy_backend_test.cc pins this contract; RemedyDataset's own
// equivalence with the reference is proven in tests/remedy_engine_test.cc.

// A remedy expressed as net signed leaf-count deltas: applying `deltas` to
// the source's leaf counts yields exactly the leaf counts of the remedied
// dataset. Sorted ascending by key; zero-net entries omitted.
struct RemedyDeltaPlan {
  std::vector<Hierarchy::LeafDelta> deltas;
  RemedyStats stats;
};

// Plans one remedy over `leaf_counts`: materializes them once, runs
// RemedyDataset, censuses the result once, and diffs. An empty census
// yields an empty plan (a no-op, not an error) — the daemon may ask for a
// remedy before any data arrived. Otherwise fails like
// MaterializeLeafCounts / RemedyDataset.
StatusOr<RemedyDeltaPlan> PlanLeafRemedy(const DataSchema& schema,
                                         const NodeTable& leaf_counts,
                                         const RemedyParams& params);

// The canonical count→row materialization shared by PlanLeafRemedy and its
// parity oracle: leaf keys ascending; per key, `positives` rows of
// label 1 then `negatives` rows of label 0; protected values decoded from
// the key; every non-protected attribute pinned to code 0. Deterministic in
// the counts alone — independent of how the counts were produced.
// kInvalidArgument when the schema has no protected attributes or a count
// is negative.
StatusOr<Dataset> MaterializeLeafCounts(const DataSchema& schema,
                                        const NodeTable& leaf_counts);

// The leaf census of a dataset (one CountNode scan of the finest node).
NodeTable LeafCountsOf(const Dataset& data);

// Net signed deltas such that `before` + deltas = `after`, ascending by
// key, zero-net entries omitted.
std::vector<Hierarchy::LeafDelta> DiffLeafCounts(const NodeTable& before,
                                                 const NodeTable& after);

// FNV-1a digest over (key, positives, negatives) little-endian triples —
// the byte-identity witness of the parity suite and the smoke tooling.
uint64_t LeafCountsDigest(const NodeTable& counts);

}  // namespace remedy

#endif  // REMEDY_CORE_REMEDY_BACKEND_H_
