#ifndef REMEDY_CORE_IBS_IDENTIFY_H_
#define REMEDY_CORE_IBS_IDENTIFY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/counting_backend.h"
#include "core/hierarchy.h"
#include "core/imbalance.h"
#include "core/pattern.h"
#include "data/columnar.h"
#include "data/dataset.h"

namespace remedy {

// Which slice of the hierarchy the identification traverses (Sec. V-A/b).
enum class IbsScope {
  kLattice,  // every level from the leaves up to level 1 (the paper's method)
  kLeaf,     // only fully-deterministic intersectional regions
  kTop,      // only level 1 (single protected attributes)
};

// Which neighbor-count computation to use (Sec. III-A vs III-B).
enum class IbsAlgorithm {
  kNaive,
  kOptimized,
};

// Parameters of Problem 1 (Implicit Biased Set identification).
struct IbsParams {
  double imbalance_threshold = 0.1;  // tau_c
  double distance_threshold = 1.0;   // T
  int min_region_size = 30;          // k, the CLT rule of thumb
  IbsScope scope = IbsScope::kLattice;
  IbsAlgorithm algorithm = IbsAlgorithm::kOptimized;
  // Engine behind the leaf-node scan (--backend=scalar|simd|sharded);
  // output is byte-identical across all three and any thread count.
  CountingBackendKind backend = CountingBackendKind::kScalar;
  int backend_threads = 0;  // sharded counting workers; <= 0 = all CPUs
};

// One region of the Implicit Biased Set, with the evidence that put it there.
struct BiasedRegion {
  Pattern pattern;
  RegionCounts counts;           // |r+|, |r-|
  RegionCounts neighbor_counts;  // |r_n+|, |r_n-|
  double ratio = 0.0;            // ratio_r
  double neighbor_ratio = 0.0;   // ratio_rn
};

// Identifies the IBS of `data` (Algorithm 1): every region with more than
// `min_region_size` instances whose imbalance score differs from its
// neighboring region's by more than `imbalance_threshold`. Regions are
// returned in the bottom-up traversal order, deterministically.
// Fails with kInvalidArgument when `data` has no protected attributes.
StatusOr<std::vector<BiasedRegion>> IdentifyIbs(const Dataset& data,
                                                const IbsParams& params);

// Same identification over a columnar shard store — the out-of-core entry
// point: a 10M+-row input streams into a store chunk by chunk (see
// GenerateSyntheticStore) and is identified without a Dataset copy ever
// existing. Output is byte-identical to the Dataset form on equal rows.
StatusOr<std::vector<BiasedRegion>> IdentifyIbs(
    const ColumnarShardStore& store, const IbsParams& params);

// The regions of node `mask` only, over a caller-owned hierarchy (so the
// remedy loop can share memoized node counts across nodes of one pass).
std::vector<BiasedRegion> IdentifyIbsInNode(Hierarchy& hierarchy,
                                            uint32_t mask,
                                            const IbsParams& params);

// A biased region with its key in its node's key space.
using KeyedRegion = std::pair<uint64_t, BiasedRegion>;

// Regions judged (larger than k), by neighbor strategy — the
// ibs/neighbor_reuse and ibs/neighbor_naive tallies.
struct ScoredTally {
  int64_t optimized = 0;
  int64_t naive = 0;
};

// Scores the region at `key` of node `mask` — the one scoring
// implementation both the full and the incremental identify paths run,
// which is what makes their outputs bit-identical by construction (same
// inputs, same float ops). A region larger than k is counted in `tally`,
// and appended with its key to `biased` if it is biased. `use_optimized`
// must be `params.algorithm == kOptimized &&
// neighborhood.SupportsOptimized(mask)`, i.e. the caller resolves the
// strategy once per node.
void ScoreRegion(Hierarchy& hierarchy, NeighborhoodCalculator& neighborhood,
                 bool use_optimized, uint32_t mask, uint64_t key,
                 const RegionCounts& counts, const IbsParams& params,
                 std::vector<KeyedRegion>* biased, ScoredTally* tally);

// The one per-node scoring loop: ScoreRegion over every region of node
// `mask` in ascending key order (the NodeTable's iteration order). The
// full sweep and the incremental path's whole-node re-sweep both run it.
void ScoreNode(Hierarchy& hierarchy, NeighborhoodCalculator& neighborhood,
               uint32_t mask, const IbsParams& params,
               std::vector<KeyedRegion>* biased, ScoredTally* tally);

// The biased regions of one lattice node, ascending by key.
struct NodeIbs {
  uint32_t mask = 0;
  std::vector<KeyedRegion> biased;
};

// The from-scratch identify sweep (Algorithm 1) over a caller-owned
// hierarchy, and the one lattice loop: ScoreNode on every node of
// ScopeMasks(params.scope), in that order. IdentifyIbs runs it on a fresh hierarchy, IncrementalIbsState's
// full pass keeps its per-node output as the verdict cache, and the
// incremental parity checks use SweepIbs as their oracle.
std::vector<NodeIbs> SweepIbsByNode(Hierarchy& hierarchy,
                                    const IbsParams& params);

// The same sweep, its regions flattened into the IBS in traversal order.
std::vector<BiasedRegion> SweepIbs(Hierarchy& hierarchy,
                                   const IbsParams& params);

// Node masks visited under `scope`, in traversal order.
std::vector<uint32_t> ScopeMasks(const Hierarchy& hierarchy, IbsScope scope);

// True if `pattern`'s region is in (or equal to) one of the biased regions'
// patterns — convenience for the Fig. 3 validation experiment, which also
// marks subgroups that *dominate* biased regions.
bool DominatesAnyBiasedRegion(const Pattern& pattern,
                              const std::vector<BiasedRegion>& ibs);

}  // namespace remedy

#endif  // REMEDY_CORE_IBS_IDENTIFY_H_
