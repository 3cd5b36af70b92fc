#ifndef REMEDY_CORE_PIPELINE_REPORT_H_
#define REMEDY_CORE_PIPELINE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/remedy.h"
#include "data/dataset.h"

namespace remedy {

// Audit trail of one identify-and-remedy run: for every biased region found
// in the input, where its imbalance stood before the remedy, what the
// technique did about it, and where the region stands in the remedied data.
// This is the artifact a fairness review files next to the remedied dataset
// — remedy_cli --report prints it, --report-json serializes it.

// One biased region's before/after record.
struct RegionReportEntry {
  std::string region;         // human-readable pattern, wildcards omitted
  uint32_t node_mask = 0;     // hierarchy node of the region
  int64_t positives_before = 0;
  int64_t negatives_before = 0;
  double score_before = 0.0;    // ratio_r at identification time
  double neighbor_score = 0.0;  // ratio_rn, the target the remedy aimed at
  // The planned update (Def. 6). The committed change can be smaller when
  // the oversampling budget truncated it.
  int64_t planned_delta_positives = 0;
  int64_t planned_delta_negatives = 0;
  int64_t planned_flips = 0;
  bool reachable = true;  // false: the technique cannot hit the target
  // The region's state in the remedied dataset (exact recount).
  int64_t positives_after = 0;
  int64_t negatives_after = 0;
  double score_after = 0.0;
  bool improved = false;  // |score - neighbor| shrank
};

struct PipelineReport {
  std::string technique;
  uint64_t seed = 0;
  int64_t rows_before = 0;
  int64_t rows_after = 0;
  RemedyStats stats;  // committed row changes, region accounting
  std::vector<RegionReportEntry> regions;  // identification order
  int64_t regions_improved = 0;
  int64_t residual_ibs_size = 0;  // |IBS| of the remedied dataset

  // One JSON object (regions as an array, stats flattened in).
  std::string ToJson() const;
};

// Renders `report` as a human-readable summary plus a per-region table.
void PrintPipelineReport(const PipelineReport& report, std::ostream& out);

// Runs the full audited pipeline on `train`: identify the IBS, plan the
// per-region updates, remedy the dataset, then re-score every identified
// region against the remedied data. Returns the report and, when
// `remedied_out` is non-null, the remedied dataset itself.
StatusOr<PipelineReport> RunAuditedRemedy(const Dataset& train,
                                          const RemedyParams& params,
                                          Dataset* remedied_out = nullptr);

}  // namespace remedy

#endif  // REMEDY_CORE_PIPELINE_REPORT_H_
