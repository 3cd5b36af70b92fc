#ifndef PERFBENCH_BATCH_PHASE_H_
#define PERFBENCH_BATCH_PHASE_H_

// The batch phases: repeated store-backed IdentifyIbs audits, and repeated
// runs of the paper pipeline (audit -> preferential-sampling remedy -> LG
// and DT fit/predict -> FPR/FNR fairness index), through the library's
// public entry points only. Each repeat must reproduce the first repeat's
// digests exactly.

#include <cstdint>
#include <string>
#include <vector>

#include "core/ibs_identify.h"
#include "data/columnar.h"
#include "data/dataset.h"

namespace perfbench {

struct AuditRuns {
  std::vector<double> seconds;  // one per IdentifyIbs call
  uint64_t digest = 0;          // IbsSetDigest of the first call
  size_t regions = 0;
  bool repeatable = true;       // every call digested equal
};

// Appends `count` IdentifyIbs(store) calls, back to back.
void RunAudits(const remedy::ColumnarShardStore& store, int count,
               AuditRuns* runs);

// The same audit split into the stages IdentifyIbs runs lazily — the leaf
// scan (counting backend), the rollup of every coarser node, and the
// per-node scoring sweep — each under a "bench/..." span and driven through
// Hierarchy::NodeCounts / IdentifyIbsInNode. Its digest must equal the
// audit's: this is the audit's independent cross-check.
struct AuditStages {
  double leaf_scan_ms = 0.0;
  double rollup_ms = 0.0;
  double sweep_ms = 0.0;
  uint64_t digest = 0;
};
AuditStages ReplayAuditStages(const remedy::ColumnarShardStore& store);

struct PipelineRuns {
  // Per iteration.
  std::vector<double> audit_s;
  std::vector<double> remedy_s;
  std::vector<double> train_eval_s;
  std::vector<double> pipeline_s;
  // Digests of the first iteration; every later one must equal them.
  uint64_t ibs_digest = 0;
  uint64_t remedied_digest = 0;  // LeafCountsDigest(LeafCountsOf(remedied))
  std::vector<double> fairness;  // LG FPR, LG FNR, DT FPR, DT FNR
  size_t ibs_regions = 0;
  int64_t remedied_rows = 0;
  bool repeatable = true;
};

// Appends `count` pipeline iterations on `train`/`test`.
void RunPipelines(const remedy::Dataset& train, const remedy::Dataset& test,
                  int count, PipelineRuns* runs);

// Cross-check of the pipeline's audit: the same train split counted through
// a columnar store (simd backend) must identify the same IBS.
uint64_t PipelineAuditViaStore(const remedy::Dataset& train);

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_PHASE_H_
