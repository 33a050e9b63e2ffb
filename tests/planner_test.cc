// Tests for the cost-based query planner (core/planner.h).

#include "core/planner.h"

#include <gtest/gtest.h>

namespace affinity::core {
namespace {

QueryPlanner FullPlanner() {
  return QueryPlanner(670, 720, {.has_model = true, .has_scape = true, .has_dft = true});
}

QueryPlanner BarePlanner() {
  return QueryPlanner(670, 720, {.has_model = false, .has_scape = false, .has_dft = false});
}

TEST(Planner, MecPrefersAffineWhenModelExists) {
  const PlanChoice c = FullPlanner().PlanMec(Measure::kCovariance, 10);
  EXPECT_EQ(c.method, QueryMethod::kAffine);
  EXPECT_GT(c.estimated_cost, 0.0);
}

TEST(Planner, MecFallsBackToNaive) {
  const PlanChoice c = BarePlanner().PlanMec(Measure::kCovariance, 10);
  EXPECT_EQ(c.method, QueryMethod::kNaive);
}

TEST(Planner, MetPrefersScapeForIndexableMeasures) {
  for (Measure m : {Measure::kMean, Measure::kMedian, Measure::kMode, Measure::kCovariance,
                    Measure::kDotProduct, Measure::kCorrelation, Measure::kCosine}) {
    EXPECT_EQ(FullPlanner().PlanMet(m).method, QueryMethod::kScape) << MeasureName(m);
  }
}

TEST(Planner, MetUsesAffineForNonIndexableDerivedMeasures) {
  for (Measure m : {Measure::kJaccard, Measure::kDice}) {
    const PlanChoice c = FullPlanner().PlanMet(m);
    EXPECT_EQ(c.method, QueryMethod::kAffine) << MeasureName(m);
    EXPECT_NE(c.rationale.find("not SCAPE-indexable"), std::string::npos);
  }
}

TEST(Planner, MetWithoutIndexUsesAffine) {
  QueryPlanner p(670, 720, {.has_model = true, .has_scape = false, .has_dft = false});
  EXPECT_EQ(p.PlanMet(Measure::kCovariance).method, QueryMethod::kAffine);
}

TEST(Planner, MetWithNothingUsesNaive) {
  EXPECT_EQ(BarePlanner().PlanMet(Measure::kCovariance).method, QueryMethod::kNaive);
}

TEST(Planner, MerMirrorsMet) {
  EXPECT_EQ(FullPlanner().PlanMer(Measure::kCorrelation).method, QueryMethod::kScape);
  EXPECT_EQ(FullPlanner().PlanMer(Measure::kJaccard).method, QueryMethod::kAffine);
}

TEST(Planner, TopKChargesTheThresholdAlgorithmForWhatItExamines) {
  // D-measures: the loose ‖α‖ξ/U_min bound makes the threshold algorithm
  // examine every entity at two heap operations each, so the WA pass wins.
  for (Measure m : {Measure::kCorrelation, Measure::kCosine}) {
    const PlanChoice c = FullPlanner().PlanTopK(m, 10);
    EXPECT_EQ(c.method, QueryMethod::kAffine) << MeasureName(m);
    EXPECT_NE(c.rationale.find("k-bounded pass"), std::string::npos) << c.rationale;
  }
  // T- and L-measures: the bound is exact, the TA examines k entries and
  // beats reading every entity.
  for (Measure m : {Measure::kCovariance, Measure::kDotProduct, Measure::kMean}) {
    const PlanChoice c = FullPlanner().PlanTopK(m, 10);
    EXPECT_EQ(c.method, QueryMethod::kScape) << MeasureName(m);
    EXPECT_NE(c.rationale.find("top-k"), std::string::npos);
  }
  // Without a model the index still answers derived top-k.
  const QueryPlanner index_only(670, 720, {.has_model = false, .has_scape = true});
  EXPECT_EQ(index_only.PlanTopK(Measure::kCorrelation, 10).method, QueryMethod::kScape);
  // A k covering every entity leaves the TA nothing to prune.
  const QueryPlanner tiny(5, 720, {.has_model = true, .has_scape = true});
  EXPECT_EQ(tiny.PlanTopK(Measure::kCovariance, 10).method, QueryMethod::kAffine);
}

TEST(Planner, CostsOrderStrategiesSensibly) {
  // With everything built, the index plan for a selective query must be
  // cheaper than the WA full sweep, which must be cheaper than WN.
  QueryPlanner full = FullPlanner();
  QueryPlanner model_only(670, 720, {.has_model = true, .has_scape = false, .has_dft = false});
  QueryPlanner bare = BarePlanner();
  const double scape_cost = full.PlanMet(Measure::kCovariance, 0.01).estimated_cost;
  const double wa_cost = model_only.PlanMet(Measure::kCovariance, 0.01).estimated_cost;
  const double wn_cost = bare.PlanMet(Measure::kCovariance, 0.01).estimated_cost;
  EXPECT_LT(scape_cost, wa_cost);
  EXPECT_LT(wa_cost, wn_cost);
}

TEST(Planner, SelectivityScalesIndexCost) {
  QueryPlanner p = FullPlanner();
  const double cheap = p.PlanMet(Measure::kCovariance, 0.001).estimated_cost;
  const double pricey = p.PlanMet(Measure::kCovariance, 0.9).estimated_cost;
  EXPECT_LT(cheap, pricey);
}

TEST(Planner, NaiveUnitCostsReflectKernelComplexity) {
  QueryPlanner p = BarePlanner();
  // Mode is quadratic, everything else linear-ish in m.
  EXPECT_GT(p.NaiveUnitCost(Measure::kMode), 100.0 * p.NaiveUnitCost(Measure::kMedian));
  EXPECT_LT(p.NaiveUnitCost(Measure::kDotProduct), p.NaiveUnitCost(Measure::kCovariance));
  EXPECT_LT(p.NaiveUnitCost(Measure::kCovariance), p.NaiveUnitCost(Measure::kCorrelation));
}

TEST(Planner, LocationQueriesCostFewerEntities) {
  QueryPlanner bare = BarePlanner();
  const double loc = bare.PlanMet(Measure::kMean).estimated_cost;
  const double pair = bare.PlanMet(Measure::kDotProduct).estimated_cost;
  EXPECT_LT(loc, pair);  // n entities vs n(n−1)/2
}

TEST(Planner, RationaleIsAlwaysPresent) {
  for (Measure m : AllMeasures()) {
    EXPECT_FALSE(FullPlanner().PlanMet(m).rationale.empty()) << MeasureName(m);
    EXPECT_FALSE(BarePlanner().PlanMet(m).rationale.empty()) << MeasureName(m);
  }
}

TEST(Planner, ShardTopologyChargesCrossPairSweep) {
  QueryPlanner::Capabilities caps;
  caps.has_model = true;
  caps.has_scape = true;
  // 4 shards of 4 series over m=64; 96 of the 120 global pairs cross.
  const QueryPlanner flat(4, 64, caps);
  const QueryPlanner sharded(4, 64, caps, QueryPlanner::Topology{4, 96});

  const PlanChoice a = flat.PlanMet(Measure::kCovariance);
  const PlanChoice b = sharded.PlanMet(Measure::kCovariance);
  // Same per-shard strategy, plus exactly the cross-shard WN surcharge.
  EXPECT_EQ(b.method, a.method);
  EXPECT_NEAR(b.estimated_cost - a.estimated_cost,
              96.0 * sharded.NaiveUnitCost(Measure::kCovariance), 1e-9);
  EXPECT_NE(b.rationale.find("scatter-gather over 4 shards"), std::string::npos);
  EXPECT_NE(b.rationale.find("96 cross-shard pairs"), std::string::npos);

  // L-measures never span shards: no surcharge, unchanged rationale.
  const PlanChoice l = sharded.PlanMet(Measure::kMean);
  EXPECT_EQ(l.estimated_cost, flat.PlanMet(Measure::kMean).estimated_cost);
  EXPECT_EQ(l.rationale.find("scatter-gather"), std::string::npos);

  // The default topology is the unsharded identity.
  const QueryPlanner one(4, 64, caps, QueryPlanner::Topology{1, 0});
  EXPECT_EQ(one.PlanTopK(Measure::kCorrelation, 5).rationale,
            flat.PlanTopK(Measure::kCorrelation, 5).rationale);
}

}  // namespace
}  // namespace affinity::core
