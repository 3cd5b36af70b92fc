#ifndef REMEDY_CORE_IBS_INCREMENTAL_H_
#define REMEDY_CORE_IBS_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/hierarchy.h"
#include "core/ibs_identify.h"

namespace remedy {

// Per-pass accounting of one IncrementalIbsState::Identify call.
struct IncrementalIdentifyStats {
  bool incremental = false;      // false: the pass fell back to a full sweep
  int64_t dirty_leaves = 0;      // leaf region keys the epoch's deltas touched
  int64_t dirty_regions = 0;     // touched keys summed over every node
  int64_t rescored_regions = 0;  // regions re-scored this pass
  int64_t expanded_regions = 0;  // neighborhood-frontier keys added to dirty
  int64_t cached_regions = 0;    // biased verdicts reused from the cache
  int64_t full_node_rescores = 0;  // whole nodes re-swept (T >= diameter)
};

// Dirty-region incremental IBS maintenance: caches the previous identify
// pass's per-node biased verdicts and, on the next pass, re-scores only the
// regions the interim ApplyDeltas batches touched (Hierarchy::dirty_set())
// plus their comparison neighborhoods, merging with the cached verdicts
// elsewhere. The output is bit-identical to the from-scratch SweepIbs —
// same regions, same floats, same order — because:
//
//  * every re-scored region runs the exact ScoreRegion the full sweep runs,
//    on the same NodeTable counts (a whole-node re-sweep runs its ScoreNode);
//  * a region is re-scored iff its verdict's inputs could have changed: its
//    own counts changed (it is dirty), or a region within distance T of it
//    changed (the dirty frontier expanded one neighborhood hop — the metric
//    is symmetric, so "neighbors of dirty" is exactly "regions whose
//    neighborhood contains a dirty region"); in the T >= node-diameter
//    regime, where r_n = totals - r, the whole node is re-swept when the
//    totals drifted and only the dirty regions when they did not;
//  * the merged per-node output walks cached and re-scored entries in
//    ascending key order — the NodeTable iteration order of the full sweep.
//
// Cutover: a node whose dirty keys reach kCutoverDirtyShare of its entries
// is re-swept whole, through the same path as the totals-drift case, so no
// incremental pass costs more than a full sweep plus its bookkeeping (a
// census-sized batch would otherwise expand and merge a frontier larger
// than the node). Cut-over nodes count in full_node_rescores and add
// nothing to expanded_regions.
//
// Falls back to a full sweep (recording why) on: a cold cache, an
// Invalidate() call (the daemon does this on recovery), a rebuilt or
// swapped hierarchy, a params change, or dirty tracking having been off
// while deltas applied (Hierarchy::mutation_generation() moves).
//
// Not thread-safe; the daemon drives it from its single apply thread.
class IncrementalIbsState {
 public:
  // The identify pass: incremental when the cache is valid, else a full
  // sweep that (re)fills it. Consumes and clears the hierarchy's dirty set
  // and enables dirty tracking for the next inter-pass window.
  std::vector<BiasedRegion> Identify(Hierarchy& hierarchy,
                                     const IbsParams& params);

  // Forces the next Identify to run a full sweep, recording `reason` as
  // the fallback reason (e.g. "recovery").
  void Invalidate(const std::string& reason);

  // Accounting of the most recent Identify call.
  const IncrementalIdentifyStats& last_stats() const { return stats_; }

  // Why the most recent full sweep ran ("" until one has). Sticky: later
  // incremental passes do not clear it, so a health report can always say
  // what last forced a fallback.
  const std::string& last_fallback_reason() const {
    return last_fallback_reason_;
  }

  bool has_cache() const { return have_cache_; }

  // FNV-1a over the (node mask, region key) of every subgroup the most
  // recent pass identified, in output order — the daemon's online-monitor
  // digest, read off the cache without re-encoding any pattern.
  uint64_t SubgroupKeyDigest() const;

  // Share of a node's entries its dirty keys must reach before the node is
  // re-swept whole instead of incrementally (the cutover above). Measured
  // at T = 1 on two lattices, batches dirtying from a few leaves up to all
  // of them: the |X| = 8, cardinality-4 one (1.2M rows) and Adult's
  // 6-attribute one (1M rows). Shares of 0.05-0.10 gave the lowest
  // identify time on both; at 0.02-0.03 the 256-entry |X| = 8 nodes cut
  // over on 8-leaf batches and cost ~20% more, and above 0.10 passes over
  // 0.5-3% of the leaves cost up to 60% more. At 0.05 no measured pass was
  // slower than a full sweep by more than its bookkeeping (~8%).
  static constexpr double kCutoverDirtyShare = 0.05;

 private:
  // Non-empty reason iff the cache cannot serve `hierarchy` + `params`.
  std::string FullPassReason(const Hierarchy& hierarchy,
                             const IbsParams& params) const;

  // Refills the cache with SweepIbsByNode; returns CachedIbs().
  std::vector<BiasedRegion> FullPass(Hierarchy& hierarchy,
                                     const IbsParams& params,
                                     const std::string& reason);

  // The cached per-node verdicts flattened in scope order (a copy).
  std::vector<BiasedRegion> CachedIbs() const;

  // Per-node verdict caches, in the ScopeMasks traversal order.
  std::vector<NodeIbs> nodes_;
  bool have_cache_ = false;
  std::string pending_reason_ = "cold_cache";  // non-empty: full pass forced
  const Hierarchy* cached_hierarchy_ = nullptr;
  uint64_t cached_generation_ = 0;
  IbsParams cached_params_;
  IncrementalIdentifyStats stats_;
  std::string last_fallback_reason_;
};

// Order-sensitive FNV-1a digest over an identified subgroup set: pattern
// values, counts, neighbor counts, and the raw ratio bits of every region.
// Two IBS vectors digest equal iff they are byte-identical region for
// region — the parity check of the incremental identify tests and the
// serve_steady bench.
uint64_t IbsSetDigest(const std::vector<BiasedRegion>& ibs);

}  // namespace remedy

#endif  // REMEDY_CORE_IBS_INCREMENTAL_H_
