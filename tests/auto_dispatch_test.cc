// Tests for QueryMethod::kAuto: the engine must consult the QueryPlanner
// over the capabilities actually attached, dispatch to the planner's
// choice, surface the executed plan in the response, and return exactly
// what the explicitly-requested strategy would have returned.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "core/planner.h"
#include "core/query.h"
#include "ts/generators.h"

namespace affinity::core {
namespace {

class AutoDispatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ts::DatasetSpec spec;
    spec.num_series = 24;
    spec.num_samples = 80;
    spec.num_clusters = 3;
    spec.noise_level = 0.02;
    spec.seed = 17;
    dataset_ = new ts::Dataset(ts::MakeSensorData(spec));
    auto fw = Affinity::Build(dataset_->matrix);
    ASSERT_TRUE(fw.ok());
    framework_ = new Affinity(std::move(fw).value());
  }
  static void TearDownTestSuite() {
    delete framework_;
    delete dataset_;
    framework_ = nullptr;
    dataset_ = nullptr;
  }
  static ts::Dataset* dataset_;
  static Affinity* framework_;
};

ts::Dataset* AutoDispatchTest::dataset_ = nullptr;
Affinity* AutoDispatchTest::framework_ = nullptr;

/// Engines covering every capability combination the facade can produce:
/// bare (WN only), model (WA), model+scape, model+dft, and everything.
struct CapabilityCase {
  bool model;
  bool scape;
  bool dft;
};

QueryEngine MakeEngine(const Affinity& fw, const ts::DataMatrix& data, const CapabilityCase& c) {
  QueryEngine engine(&data);
  if (c.model) engine.AttachModel(&fw.model());
  if (c.scape) engine.AttachScape(fw.scape());
  if (c.dft) engine.EnableDft();
  return engine;
}

const CapabilityCase kAllCases[] = {
    {false, false, false}, {true, false, false}, {true, true, false},
    {true, false, true},   {true, true, true},
};

TEST_F(AutoDispatchTest, CapabilitiesReflectAttachments) {
  for (const CapabilityCase& c : kAllCases) {
    const QueryEngine engine = MakeEngine(*framework_, dataset_->matrix, c);
    const QueryPlanner::Capabilities caps = engine.Capabilities();
    EXPECT_EQ(caps.has_model, c.model);
    EXPECT_EQ(caps.has_scape, c.scape);
    EXPECT_EQ(caps.has_dft, c.dft);
  }
}

TEST_F(AutoDispatchTest, MetAutoMatchesPlannerForEveryCapabilityCombination) {
  for (const CapabilityCase& c : kAllCases) {
    const QueryEngine engine = MakeEngine(*framework_, dataset_->matrix, c);
    const QueryPlanner planner(dataset_->matrix.n(), dataset_->matrix.m(),
                               engine.Capabilities());
    for (const Measure m : {Measure::kCovariance, Measure::kCorrelation, Measure::kMean,
                            Measure::kJaccard}) {
      MetRequest req;
      req.measure = m;
      req.tau = m == Measure::kCorrelation ? 0.7 : 1.0;
      auto result = engine.Met(req, QueryMethod::kAuto);
      ASSERT_TRUE(result.ok()) << MeasureName(m);
      const PlanChoice expected = planner.PlanMet(m);
      EXPECT_EQ(result->plan.method, expected.method)
          << MeasureName(m) << " model=" << c.model << " scape=" << c.scape;
      EXPECT_EQ(result->plan.rationale, expected.rationale);
      EXPECT_EQ(result->plan.estimated_cost, expected.estimated_cost);

      // The auto answer is exactly the explicit answer of the chosen method.
      auto explicit_result = engine.Met(req, expected.method);
      ASSERT_TRUE(explicit_result.ok());
      EXPECT_EQ(result->pairs, explicit_result->pairs) << MeasureName(m);
      EXPECT_EQ(result->series, explicit_result->series) << MeasureName(m);
    }
  }
}

TEST_F(AutoDispatchTest, MetAutoPicksExpectedStrategies) {
  // Bare → WN; model-only → WA; model+scape → SCAPE (indexable) / WA
  // (Jaccard & Dice are not indexable).
  const QueryEngine bare = MakeEngine(*framework_, dataset_->matrix, {false, false, false});
  const QueryEngine model_only = MakeEngine(*framework_, dataset_->matrix, {true, false, false});
  const QueryEngine full = MakeEngine(*framework_, dataset_->matrix, {true, true, true});
  MetRequest req;
  req.measure = Measure::kCovariance;
  req.tau = 0.5;
  EXPECT_EQ(bare.Met(req, QueryMethod::kAuto)->plan.method, QueryMethod::kNaive);
  EXPECT_EQ(model_only.Met(req, QueryMethod::kAuto)->plan.method, QueryMethod::kAffine);
  EXPECT_EQ(full.Met(req, QueryMethod::kAuto)->plan.method, QueryMethod::kScape);
  req.measure = Measure::kDice;
  EXPECT_EQ(full.Met(req, QueryMethod::kAuto)->plan.method, QueryMethod::kAffine);
}

TEST_F(AutoDispatchTest, AutoNeverPicksApproximateWfButReportsIt) {
  // WF-only engine: AUTO stays exact (WN) and the rationale tells the
  // caller the approximate sketch path exists.
  const QueryEngine wf_only = MakeEngine(*framework_, dataset_->matrix, {false, false, true});
  MetRequest req;
  req.measure = Measure::kCorrelation;
  req.tau = 0.7;
  auto result = wf_only.Met(req, QueryMethod::kAuto);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.method, QueryMethod::kNaive);
  EXPECT_NE(result->plan.rationale.find("WF sketches available"), std::string::npos)
      << result->plan.rationale;
}

TEST_F(AutoDispatchTest, MerAutoDispatchesThroughPlanner) {
  MerRequest req;
  req.measure = Measure::kCorrelation;
  req.lo = 0.2;
  req.hi = 0.9;
  auto result = framework_->engine().Mer(req, QueryMethod::kAuto);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.method, QueryMethod::kScape);
  auto explicit_result = framework_->engine().Mer(req, QueryMethod::kScape);
  ASSERT_TRUE(explicit_result.ok());
  EXPECT_EQ(result->pairs, explicit_result->pairs);
}

TEST_F(AutoDispatchTest, MecAutoUsesModelWhenPresent) {
  MecRequest req;
  req.measure = Measure::kCovariance;
  req.ids = {0, 3, 5};
  auto result = framework_->engine().Mec(req, QueryMethod::kAuto);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.method, QueryMethod::kAffine);
  EXPECT_GT(result->plan.estimated_cost, 0.0);
  EXPECT_FALSE(result->plan.rationale.empty());

  const QueryEngine bare = MakeEngine(*framework_, dataset_->matrix, {false, false, false});
  auto naive = bare.Mec(req, QueryMethod::kAuto);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->plan.method, QueryMethod::kNaive);
}

TEST_F(AutoDispatchTest, TopKAutoMatchesTheExplicitPlan) {
  // Correlation (D-measure) plans the WA pass, covariance (T-measure) the
  // threshold algorithm; either way kAuto is bitwise the explicit method.
  for (const auto& [measure, expected] :
       {std::pair{Measure::kCorrelation, QueryMethod::kAffine},
        std::pair{Measure::kCovariance, QueryMethod::kScape}}) {
    SCOPED_TRACE(std::string(MeasureName(measure)));
    TopKRequest req;
    req.measure = measure;
    req.k = 10;
    auto result = framework_->engine().TopK(req, QueryMethod::kAuto);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan.method, expected);
    auto explicit_result = framework_->engine().TopK(req, expected);
    ASSERT_TRUE(explicit_result.ok());
    ASSERT_EQ(result->entries.size(), explicit_result->entries.size());
    for (std::size_t i = 0; i < result->entries.size(); ++i) {
      EXPECT_EQ(result->entries[i].value, explicit_result->entries[i].value);
      EXPECT_EQ(result->entries[i].pair, explicit_result->entries[i].pair);
    }
  }
}

TEST_F(AutoDispatchTest, AutoIsTheDefaultMethod) {
  MetRequest req;
  req.measure = Measure::kCorrelation;
  req.tau = 0.7;
  auto defaulted = framework_->engine().Met(req);
  auto spelled = framework_->engine().Met(req, QueryMethod::kAuto);
  ASSERT_TRUE(defaulted.ok());
  ASSERT_TRUE(spelled.ok());
  EXPECT_EQ(defaulted->plan.method, spelled->plan.method);
  EXPECT_EQ(defaulted->pairs, spelled->pairs);
}

TEST_F(AutoDispatchTest, ExplicitMethodsRecordExplicitPlan) {
  MetRequest req;
  req.measure = Measure::kCovariance;
  req.tau = 0.5;
  auto result = framework_->engine().Met(req, QueryMethod::kNaive);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.method, QueryMethod::kNaive);
  EXPECT_NE(result->plan.rationale.find("explicitly requested"), std::string::npos);
}

TEST(QueryMethodNameFn, AutoName) { EXPECT_EQ(QueryMethodName(QueryMethod::kAuto), "AUTO"); }

}  // namespace
}  // namespace affinity::core
