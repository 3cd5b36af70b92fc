#include "core/remedy_backend.h"

#include <algorithm>
#include <string>

#include "common/clock.h"
#include "common/hash.h"
#include "common/pipeline_metrics.h"

namespace remedy {

StatusOr<RemedyDeltaPlan> PlanLeafRemedy(const DataSchema& schema,
                                         const NodeTable& leaf_counts,
                                         const RemedyParams& params) {
  const int64_t start_ns = MonotonicNanos();
  RemedyDeltaPlan plan;
  int64_t total = 0;
  for (const auto& [key, region] : leaf_counts) total += region.Total();
  if (total == 0) return plan;  // nothing to remedy yet
  ASSIGN_OR_RETURN(Dataset canonical,
                   MaterializeLeafCounts(schema, leaf_counts));
  ASSIGN_OR_RETURN(Dataset remedied,
                   RemedyDataset(canonical, params, &plan.stats));
  plan.deltas = DiffLeafCounts(leaf_counts, LeafCountsOf(remedied));
  const PipelineMetrics& metrics = PipelineMetrics::Get();
  metrics.remedy_backend_plans->Increment();
  metrics.remedy_backend_deltas_planned->Increment(
      static_cast<int64_t>(plan.deltas.size()));
  metrics.remedy_backend_plan_ns->Observe(MonotonicNanos() - start_ns);
  return plan;
}

StatusOr<Dataset> MaterializeLeafCounts(const DataSchema& schema,
                                        const NodeTable& leaf_counts) {
  if (schema.NumProtected() == 0) {
    return InvalidArgumentError(
        "cannot materialize counts without protected attributes");
  }
  const RegionCounter counter(schema);
  const uint32_t leaf_mask =
      (uint32_t{1} << static_cast<uint32_t>(schema.NumProtected())) - 1;
  Dataset data(schema);
  std::vector<int> values(static_cast<size_t>(schema.NumAttributes()), 0);
  for (const auto& [key, counts] : leaf_counts) {
    if (counts.positives < 0 || counts.negatives < 0) {
      return InvalidArgumentError(
          "cannot materialize negative counts at leaf key " +
          std::to_string(key));
    }
    if (counts.Total() == 0) continue;
    const Pattern pattern = counter.PatternFor(key, leaf_mask);
    std::fill(values.begin(), values.end(), 0);
    for (int p = 0; p < schema.NumProtected(); ++p) {
      values[schema.protected_indices()[p]] = pattern.Value(p);
    }
    for (int64_t i = 0; i < counts.positives; ++i) data.AddRow(values, 1);
    for (int64_t i = 0; i < counts.negatives; ++i) data.AddRow(values, 0);
  }
  return data;
}

NodeTable LeafCountsOf(const Dataset& data) {
  const RegionCounter counter(data.schema());
  const uint32_t leaf_mask =
      (uint32_t{1} << static_cast<uint32_t>(data.schema().NumProtected())) -
      1;
  return counter.CountNode(data, leaf_mask);
}

std::vector<Hierarchy::LeafDelta> DiffLeafCounts(const NodeTable& before,
                                                 const NodeTable& after) {
  std::vector<Hierarchy::LeafDelta> deltas;
  auto a = before.begin();
  auto b = after.begin();
  auto emit = [&deltas](uint64_t key, int64_t delta_positives,
                        int64_t delta_negatives) {
    if (delta_positives != 0 || delta_negatives != 0) {
      deltas.push_back({key, delta_positives, delta_negatives});
    }
  };
  while (a != before.end() || b != after.end()) {
    if (b == after.end() || (a != before.end() && a->first < b->first)) {
      emit(a->first, -a->second.positives, -a->second.negatives);
      ++a;
    } else if (a == before.end() || b->first < a->first) {
      emit(b->first, b->second.positives, b->second.negatives);
      ++b;
    } else {
      emit(a->first, b->second.positives - a->second.positives,
           b->second.negatives - a->second.negatives);
      ++a;
      ++b;
    }
  }
  return deltas;
}

uint64_t LeafCountsDigest(const NodeTable& counts) {
  uint64_t digest = kFnv1a64Offset;
  for (const auto& [key, region] : counts) {
    // Digest the non-empty support only: a leaf drained to zero by deltas
    // stays in the table as an explicit {0,0} entry, but is unobservable —
    // it materializes no rows and a census never emits it — so it must
    // digest identically to its absence.
    if (region.Total() == 0) continue;
    digest = Fnv1a64U64(digest, key);
    digest = Fnv1a64U64(digest, static_cast<uint64_t>(region.positives));
    digest = Fnv1a64U64(digest, static_cast<uint64_t>(region.negatives));
  }
  return digest;
}

}  // namespace remedy
