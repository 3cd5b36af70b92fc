#include "batch_phase.h"

#include "common/check.h"
#include "common/trace.h"
#include "core/hierarchy.h"
#include "core/ibs_incremental.h"
#include "core/remedy.h"
#include "core/remedy_backend.h"
#include "fairness/fairness_index.h"
#include "harness.h"
#include "inputs.h"
#include "ml/model_factory.h"

namespace perfbench {

namespace {

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

std::vector<std::string> DoubleBitsOf(const std::vector<double>& values) {
  std::vector<std::string> bits;
  for (double v : values) bits.push_back(DoubleBits(v));
  return bits;
}

}  // namespace

void RunAudits(const remedy::ColumnarShardStore& store, int count,
               AuditRuns* out) {
  const remedy::IbsParams params = BenchIbsParams();
  AuditRuns& runs = *out;
  for (int done = 0; done < count; ++done) {
    const int64_t t0 = NowNs();
    auto ibs = remedy::IdentifyIbs(store, params);
    const double elapsed = SecondsSince(t0);
    REMEDY_CHECK(ibs.ok()) << ibs.status().ToString();
    runs.seconds.push_back(elapsed);
    const uint64_t digest = remedy::IbsSetDigest(ibs.value());
    if (runs.seconds.size() == 1) {
      runs.digest = digest;
      runs.regions = ibs.value().size();
    } else if (digest != runs.digest) {
      runs.repeatable = false;
    }
  }
}

AuditStages ReplayAuditStages(const remedy::ColumnarShardStore& store) {
  const remedy::IbsParams params = BenchIbsParams();
  remedy::Hierarchy hierarchy(store);
  hierarchy.SetCountingBackend(params.backend, params.backend_threads);
  remedy::Status prepared = hierarchy.PrepareCounting();
  REMEDY_CHECK(prepared.ok()) << prepared.ToString();

  AuditStages stages;
  const std::vector<uint32_t> masks =
      remedy::ScopeMasks(hierarchy, params.scope);
  int64_t t0 = NowNs();
  {
    remedy::TraceSpan span("bench/core.counting_backend.leaf_scan");
    hierarchy.NodeCounts(hierarchy.LeafMask());
    hierarchy.TotalCounts();
  }
  stages.leaf_scan_ms = NsToMs(NowNs() - t0);
  t0 = NowNs();
  {
    remedy::TraceSpan span("bench/core.hierarchy.rollup");
    for (uint32_t mask : hierarchy.BottomUpMasks()) hierarchy.NodeCounts(mask);
  }
  stages.rollup_ms = NsToMs(NowNs() - t0);
  t0 = NowNs();
  std::vector<remedy::BiasedRegion> ibs;
  {
    remedy::TraceSpan span("bench/core.ibs_identify.sweep");
    for (uint32_t mask : masks) {
      std::vector<remedy::BiasedRegion> in_node =
          remedy::IdentifyIbsInNode(hierarchy, mask, params);
      ibs.insert(ibs.end(), std::make_move_iterator(in_node.begin()),
                 std::make_move_iterator(in_node.end()));
    }
  }
  stages.sweep_ms = NsToMs(NowNs() - t0);
  stages.digest = remedy::IbsSetDigest(ibs);
  return stages;
}

void RunPipelines(const remedy::Dataset& train, const remedy::Dataset& test,
                  int count, PipelineRuns* out) {
  const remedy::IbsParams params = BenchIbsParams();
  remedy::RemedyParams remedy_params;
  remedy_params.ibs = params;
  const remedy::ModelType models[] = {remedy::ModelType::kLogisticRegression,
                                      remedy::ModelType::kDecisionTree};

  PipelineRuns& runs = *out;
  for (int done = 0; done < count; ++done) {
    const int64_t t0 = NowNs();
    std::vector<remedy::BiasedRegion> ibs;
    {
      remedy::TraceSpan span("bench/core.ibs_identify.audit");
      auto identified = remedy::IdentifyIbs(train, params);
      REMEDY_CHECK(identified.ok()) << identified.status().ToString();
      ibs = std::move(identified).value();
    }
    const int64_t t1 = NowNs();
    remedy::Dataset remedied;
    {
      remedy::TraceSpan span("bench/core.remedy.remedy");
      auto result = remedy::RemedyDataset(train, remedy_params);
      REMEDY_CHECK(result.ok()) << result.status().ToString();
      remedied = std::move(result).value();
    }
    const int64_t t2 = NowNs();
    std::vector<double> fairness;
    for (remedy::ModelType type : models) {
      remedy::ClassifierPtr model = remedy::MakeClassifier(type);
      {
        remedy::TraceSpan span("bench/ml.fit");
        model->Fit(remedied);
      }
      std::vector<int> predictions;
      {
        remedy::TraceSpan span("bench/ml.predict");
        predictions = model->PredictAll(test);
      }
      remedy::TraceSpan span("bench/fairness.index");
      for (remedy::Statistic statistic :
           {remedy::Statistic::kFpr, remedy::Statistic::kFnr}) {
        fairness.push_back(
            remedy::ComputeFairnessIndex(test, predictions, statistic));
      }
    }
    const int64_t t3 = NowNs();
    runs.audit_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    runs.remedy_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    runs.train_eval_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    runs.pipeline_s.push_back(static_cast<double>(t3 - t0) / 1e9);

    const uint64_t ibs_digest = remedy::IbsSetDigest(ibs);
    const uint64_t remedied_digest =
        remedy::LeafCountsDigest(remedy::LeafCountsOf(remedied));
    if (runs.pipeline_s.size() == 1) {
      runs.ibs_digest = ibs_digest;
      runs.remedied_digest = remedied_digest;
      runs.fairness = fairness;
      runs.ibs_regions = ibs.size();
      runs.remedied_rows = remedied.NumRows();
    } else if (ibs_digest != runs.ibs_digest ||
               remedied_digest != runs.remedied_digest ||
               DoubleBitsOf(fairness) != DoubleBitsOf(runs.fairness)) {
      runs.repeatable = false;
    }
  }
}

uint64_t PipelineAuditViaStore(const remedy::Dataset& train) {
  remedy::IbsParams params = BenchIbsParams();
  params.backend = remedy::CountingBackendKind::kSimd;
  const remedy::ColumnarShardStore store =
      remedy::ColumnarShardStore::FromDataset(train);
  auto ibs = remedy::IdentifyIbs(store, params);
  REMEDY_CHECK(ibs.ok()) << ibs.status().ToString();
  return remedy::IbsSetDigest(ibs.value());
}

}  // namespace perfbench
