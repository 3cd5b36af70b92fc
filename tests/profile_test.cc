#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "core/ibs_identify.h"
#include "data/profile.h"
#include "datagen/generator.h"
#include "datagen/random_spec.h"
#include "test_util.h"

namespace remedy {
namespace {

using ::remedy::testing::AddRows;
using ::remedy::testing::SmallSchema;

// ---------------------------------------------------------------------------
// Dataset profiling.
// ---------------------------------------------------------------------------

TEST(CramersVTest, IndependentAttributeScoresNearZero) {
  Rng rng(1);
  Dataset data(SmallSchema());
  for (int i = 0; i < 4000; ++i) {
    data.AddRow({rng.UniformInt(3), rng.UniformInt(2), rng.UniformInt(2)},
                rng.UniformInt(2));
  }
  EXPECT_LT(CramersV(data, 0), 0.05);
  EXPECT_LT(CramersV(data, 2), 0.05);
}

TEST(CramersVTest, PerfectPredictorScoresOne) {
  Dataset data(SmallSchema());
  AddRows(data, 100, 0, 0, 1, 1);  // f = 1 <=> y = 1
  AddRows(data, 100, 1, 1, 0, 0);
  EXPECT_NEAR(CramersV(data, 2), 1.0, 1e-9);
}

TEST(CramersVTest, ConstantLabelOrAttributeIsZero) {
  Dataset data(SmallSchema());
  AddRows(data, 50, 0, 0, 0, 1);
  AddRows(data, 50, 1, 0, 1, 1);  // label constant 1
  EXPECT_DOUBLE_EQ(CramersV(data, 0), 0.0);
  Dataset mixed(SmallSchema());
  AddRows(mixed, 50, 0, 0, 0, 1);
  AddRows(mixed, 50, 0, 0, 0, 0);  // attribute b constant
  EXPECT_DOUBLE_EQ(CramersV(mixed, 1), 0.0);
}

TEST(ProfileTest, CountsAndRates) {
  Dataset data(SmallSchema());
  AddRows(data, 30, 0, 0, 1, 1);
  AddRows(data, 10, 0, 1, 0, 0);
  AddRows(data, 60, 2, 1, 0, 0);
  DatasetProfile profile = ProfileDataset(data);
  EXPECT_EQ(profile.rows, 100);
  EXPECT_DOUBLE_EQ(profile.positive_rate, 0.3);
  ASSERT_EQ(profile.attributes.size(), 3u);
  const AttributeProfile& a = profile.attributes[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_TRUE(a.is_protected);
  EXPECT_EQ(a.values[0].count, 40);  // a0
  EXPECT_DOUBLE_EQ(a.values[0].fraction, 0.4);
  EXPECT_DOUBLE_EQ(a.values[0].positive_rate, 0.75);  // 30 of 40
  EXPECT_EQ(a.values[1].count, 0);                    // a1 unused
  EXPECT_DOUBLE_EQ(a.values[2].positive_rate, 0.0);   // a2 all negative
  EXPECT_FALSE(profile.attributes[2].is_protected);
}

TEST(ProfileTest, PrintsReadableSummary) {
  // Only f predicts the label; a and b are balanced.
  Dataset data(SmallSchema());
  AddRows(data, 25, 0, 0, 1, 1);
  AddRows(data, 25, 1, 1, 1, 1);
  AddRows(data, 25, 0, 1, 0, 0);
  AddRows(data, 25, 1, 0, 0, 0);
  std::ostringstream out;
  PrintDatasetProfile(ProfileDataset(data), out);
  std::string text = out.str();
  EXPECT_NE(text.find("100 rows"), std::string::npos);
  EXPECT_NE(text.find("Cramer's V"), std::string::npos);
  // The perfect predictor f sorts first.
  EXPECT_LT(text.find("| f"), text.find("| b"));
}

// ---------------------------------------------------------------------------
// Random-spec fuzzing: core invariants across random schemas.
// ---------------------------------------------------------------------------

class RandomSpecFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSpecFuzzTest, GeneratesValidDatasets) {
  Rng rng(GetParam());
  SyntheticSpec spec = RandomSpec(rng);
  Dataset data = GenerateSynthetic(spec, GetParam() + 10);
  EXPECT_EQ(data.NumRows(), spec.num_rows);
  EXPECT_EQ(data.NumColumns(), static_cast<int>(spec.attributes.size()));
  EXPECT_GE(data.schema().NumProtected(), 1);
  // Profiling never chokes on arbitrary shapes.
  DatasetProfile profile = ProfileDataset(data);
  for (const AttributeProfile& attribute : profile.attributes) {
    EXPECT_GE(attribute.cramers_v, 0.0);
    EXPECT_LE(attribute.cramers_v, 1.0 + 1e-9);
  }
}

TEST_P(RandomSpecFuzzTest, NaiveAndOptimizedIdentificationAgree) {
  // The default shapes stop at 4 protected attributes. The second input is
  // a sparse-support |X|=10 schema: 1023 lattice nodes over a few thousand
  // rows, so most fine-grained regions fall below k.
  RandomSpecOptions high_arity;
  high_arity.min_attributes = 10;
  high_arity.max_attributes = 12;
  high_arity.min_protected = 10;
  high_arity.max_protected = 10;
  high_arity.max_cardinality = 4;
  high_arity.num_rows = 2000;
  for (bool wide : {false, true}) {
    Rng rng(100 + GetParam());
    SyntheticSpec spec =
        RandomSpec(rng, wide ? high_arity : RandomSpecOptions{});
    Dataset data = GenerateSynthetic(spec, GetParam() + 20);
    IbsParams params;
    params.imbalance_threshold = 0.2;
    params.min_region_size = 15;
    params.algorithm = IbsAlgorithm::kNaive;
    std::vector<BiasedRegion> naive = IdentifyIbs(data, params).value();
    params.algorithm = IbsAlgorithm::kOptimized;
    std::vector<BiasedRegion> optimized = IdentifyIbs(data, params).value();
    ASSERT_EQ(naive.size(), optimized.size())
        << "seed " << GetParam() << (wide ? ", |X|=10" : "");
    for (size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i].pattern, optimized[i].pattern);
      EXPECT_EQ(naive[i].neighbor_counts, optimized[i].neighbor_counts);
    }
    if (wide) {
      ASSERT_EQ(data.schema().NumProtected(), 10);
      EXPECT_FALSE(optimized.empty()) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSpecFuzzTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace remedy
