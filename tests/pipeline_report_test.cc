#include "core/pipeline_report.h"

#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/trace.h"
#include "core/ibs_identify.h"
#include "datagen/adult.h"

namespace remedy {
namespace {

Dataset SmallAdult() {
  Dataset data = MakeAdult(3000, 17);
  data.SetProtected(AdultScalabilityProtected(3));
  return data;
}

TEST(PipelineReportTest, AuditMatchesRemedyOutput) {
  Dataset train = SmallAdult();
  RemedyParams params;
  params.technique = RemedyTechnique::kPreferentialSampling;

  Dataset remedied(train.schema());
  StatusOr<PipelineReport> report_or =
      RunAuditedRemedy(train, params, &remedied);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  const PipelineReport& report = report_or.value();

  EXPECT_EQ(report.technique, TechniqueName(params.technique));
  EXPECT_EQ(report.seed, params.seed);
  EXPECT_EQ(report.rows_before, train.NumRows());
  EXPECT_EQ(report.rows_after, remedied.NumRows());
  EXPECT_EQ(report.rows_after,
            report.rows_before + report.stats.instances_added -
                report.stats.instances_removed);

  // The audit covers every region the identification pass flagged.
  const size_t ibs_size = IdentifyIbs(train, params.ibs).value().size();
  EXPECT_EQ(report.regions.size(), ibs_size);
  ASSERT_FALSE(report.regions.empty())
      << "generator must yield at least one biased region for the audit";

  int64_t improved = 0;
  for (const RegionReportEntry& entry : report.regions) {
    EXPECT_FALSE(entry.region.empty());
    EXPECT_GE(entry.positives_before, 0);
    EXPECT_GE(entry.negatives_before, 0);
    EXPECT_GE(entry.positives_after, 0);
    EXPECT_GE(entry.negatives_after, 0);
    if (entry.improved) ++improved;
  }
  EXPECT_EQ(report.regions_improved, improved);
  EXPECT_GT(report.regions_improved, 0)
      << "the remedy should move at least one region toward its target";
  EXPECT_GE(report.residual_ibs_size, 0);
}

TEST(PipelineReportTest, AuditedRemedyMatchesDirectRemedy) {
  // RunAuditedRemedy must not perturb the remedy itself: the remedied rows
  // and stats are identical to a direct RemedyDataset call.
  Dataset train = SmallAdult();
  RemedyParams params;
  params.technique = RemedyTechnique::kMassaging;

  RemedyStats direct_stats;
  Dataset direct = RemedyDataset(train, params, &direct_stats).value();

  Dataset audited(train.schema());
  PipelineReport report =
      RunAuditedRemedy(train, params, &audited).value();

  ASSERT_EQ(audited.NumRows(), direct.NumRows());
  for (int r = 0; r < direct.NumRows(); ++r) {
    ASSERT_EQ(audited.Row(r), direct.Row(r)) << "row " << r;
    ASSERT_EQ(audited.Label(r), direct.Label(r)) << "row " << r;
  }
  EXPECT_EQ(report.stats.regions_processed, direct_stats.regions_processed);
  EXPECT_EQ(report.stats.instances_added, direct_stats.instances_added);
  EXPECT_EQ(report.stats.instances_removed, direct_stats.instances_removed);
  EXPECT_EQ(report.stats.labels_flipped, direct_stats.labels_flipped);
}

TEST(PipelineReportTest, ReportWorksWithoutDatasetOut) {
  Dataset train = SmallAdult();
  RemedyParams params;
  StatusOr<PipelineReport> report = RunAuditedRemedy(train, params);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows_before, train.NumRows());
}

TEST(PipelineReportTest, FailsOnUnremediableDataset) {
  Dataset empty(SmallAdult().schema());
  RemedyParams params;
  StatusOr<PipelineReport> report = RunAuditedRemedy(empty, params);
  EXPECT_FALSE(report.ok());
}

TEST(PipelineReportTest, ToJsonCarriesTheAudit) {
  Dataset train = SmallAdult();
  RemedyParams params;
  PipelineReport report = RunAuditedRemedy(train, params).value();
  const std::string json = report.ToJson();
  EXPECT_EQ(json.front(), '{');
  for (const char* key :
       {"\"technique\"", "\"seed\"", "\"rows_before\"",
        "\"rows_after\"", "\"instances_added\"", "\"instances_removed\"",
        "\"labels_flipped\"", "\"regions\"", "\"regions_improved\"",
        "\"residual_ibs_size\"", "\"score_before\"", "\"score_after\"",
        "\"neighbor_score\"", "\"improved\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing";
  }
}

TEST(PipelineReportTest, PrintRendersSummaryAndTable) {
  Dataset train = SmallAdult();
  RemedyParams params;
  PipelineReport report = RunAuditedRemedy(train, params).value();
  std::ostringstream out;
  PrintPipelineReport(report, out);
  const std::string text = out.str();
  EXPECT_NE(text.find(report.technique), std::string::npos);
  EXPECT_NE(text.find("region"), std::string::npos);
  EXPECT_NE(text.find("improved"), std::string::npos);
  // Every audited region appears in the table.
  EXPECT_NE(text.find(report.regions.front().region), std::string::npos);
}

TEST(PipelineReportTest, AuditRunsUnderActiveTraceSink) {
  // The audit is itself instrumented; a live sink must collect its spans
  // without disturbing the result.
  Dataset train = SmallAdult();
  RemedyParams params;
  TraceSink sink;
  PipelineReport report = RunAuditedRemedy(train, params).value();
  EXPECT_EQ(report.rows_before, train.NumRows());
  bool saw_audit_span = false;
  for (const TraceEvent& e : sink.Events()) {
    if (std::string(e.name) == "report/audited_remedy") saw_audit_span = true;
  }
#if defined(REMEDY_TRACE_DISABLED)
  EXPECT_FALSE(saw_audit_span) << "trace-off build must emit no spans";
#else
  EXPECT_TRUE(saw_audit_span);
#endif
}

}  // namespace
}  // namespace remedy
