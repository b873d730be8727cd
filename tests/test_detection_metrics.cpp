// Tests for the MAD outlier rule and the paper's detection bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "metrics/detection.h"

namespace usb {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median(std::vector<double>{}), 0.0);
}

TEST(MadAnomaly, FlagsObviousLowOutlier) {
  const std::vector<double> norms{50, 52, 48, 51, 49, 53, 47, 50, 5, 52};
  const std::vector<double> anomaly = mad_anomaly_indices(norms);
  EXPECT_GT(anomaly[8], 2.0);   // class 8 is the outlier
  EXPECT_LT(anomaly[0], 2.0);
}

TEST(MadAnomaly, UniformValuesProduceNoOutliers) {
  const std::vector<double> norms(10, 42.0);
  for (const double a : mad_anomaly_indices(norms)) EXPECT_EQ(a, 0.0);
}

TEST(DecideBackdoor, DetectsLowSideOnly) {
  // A HIGH outlier must not be flagged (backdoors shrink the norm).
  const std::vector<double> high{50, 52, 48, 51, 49, 53, 47, 50, 200, 52};
  EXPECT_FALSE(decide_backdoor(high).backdoored);

  const std::vector<double> low{50, 52, 48, 51, 49, 53, 47, 50, 4, 52};
  const DetectionVerdict verdict = decide_backdoor(low);
  EXPECT_TRUE(verdict.backdoored);
  ASSERT_EQ(verdict.flagged_classes.size(), 1U);
  EXPECT_EQ(verdict.flagged_classes[0], 8);
}

TEST(DecideBackdoor, CleanProfilePasses) {
  const std::vector<double> norms{50, 52, 48, 51, 49, 53, 47, 50, 46, 52};
  EXPECT_FALSE(decide_backdoor(norms).backdoored);
}

TEST(DecideBackdoor, ThresholdControlsSensitivity) {
  // The low outlier 20 scores anomaly ~10.1 under MAD.
  const std::vector<double> norms{50, 52, 48, 51, 49, 53, 47, 50, 20, 52};
  EXPECT_TRUE(decide_backdoor(norms, 1.0).backdoored);
  EXPECT_FALSE(decide_backdoor(norms, 12.0).backdoored);
}

TEST(DecideBackdoor, RatioGuardRejectsMildLowOutliers) {
  // Anomalous by MAD but not decisively below the median: a class feature,
  // not a backdoor shortcut (the paper's NC false-positive mode).
  const std::vector<double> norms{50, 52, 48, 51, 49, 53, 47, 50, 35, 52};
  EXPECT_FALSE(decide_backdoor(norms, 2.0, /*ratio_max=*/0.45).backdoored);
  EXPECT_TRUE(decide_backdoor(norms, 2.0, /*ratio_max=*/0.8).backdoored);
}

TEST(DecideBackdoor, DecisiveShortcutOverridesNoisyMad) {
  // Wide spread kills the MAD signal, but a 10x-below-median class is a
  // shortcut on its own (the NC-on-MiniResNet profile observed in Fig. 6
  // style runs).
  const std::vector<double> norms{98.7, 9.1, 92.4, 59.6, 63.9, 60.2, 135.0, 157.7, 145.7, 146.4};
  const DetectionVerdict verdict = decide_backdoor(norms);
  EXPECT_TRUE(verdict.backdoored);
  ASSERT_EQ(verdict.flagged_classes.size(), 1U);
  EXPECT_EQ(verdict.flagged_classes[0], 1);
}

TEST(MadAnomaly, SingleValueIsNeverAnomalous) {
  // K=1 "class": the value IS the median, MAD is 0, and the zero-MAD guard
  // must score it 0 instead of dividing by zero.
  const std::vector<double> anomaly = mad_anomaly_indices(std::vector<double>{7.5});
  ASSERT_EQ(anomaly.size(), 1U);
  EXPECT_EQ(anomaly[0], 0.0);
}

TEST(MadAnomaly, EmptyInput) {
  EXPECT_TRUE(mad_anomaly_indices(std::vector<double>{}).empty());
}

TEST(DecideBackdoor, SingleClassModelIsNeverFlagged) {
  // K=1: the only statistic equals its own median; there is no population to
  // be an outlier of. The verdict must be clean, with sane bookkeeping.
  const DetectionVerdict verdict = decide_backdoor(std::vector<double>{3.0});
  EXPECT_FALSE(verdict.backdoored);
  EXPECT_TRUE(verdict.flagged_classes.empty());
  ASSERT_EQ(verdict.norms.size(), 1U);
  ASSERT_EQ(verdict.anomaly.size(), 1U);
  EXPECT_EQ(verdict.anomaly[0], 0.0);
}

TEST(DecideBackdoor, AllEqualMaskNormsAreClean) {
  // Every class admits the same-size trigger: no shortcut, no outlier — even
  // at an aggressive threshold. Also exercises the MAD=0 guard end to end.
  const std::vector<double> norms(10, 13.0);
  const DetectionVerdict verdict = decide_backdoor(norms, /*threshold=*/0.1);
  EXPECT_FALSE(verdict.backdoored);
  for (const double a : verdict.anomaly) EXPECT_EQ(a, 0.0);
}

TEST(DecideBackdoor, EmptyNormsProduceCleanVerdict) {
  // An empty scan (no probe classes) must degrade to "clean", not crash.
  const DetectionVerdict verdict = decide_backdoor(std::vector<double>{});
  EXPECT_FALSE(verdict.backdoored);
  EXPECT_TRUE(verdict.flagged_classes.empty());
  EXPECT_TRUE(verdict.norms.empty());
  EXPECT_TRUE(verdict.anomaly.empty());
}

TEST(DecideBackdoor, AllZeroNormsAreClean) {
  // Degenerate all-zero statistics (e.g. an empty probe set collapsed every
  // mask): median 0 means nothing can be "well below" it.
  const DetectionVerdict verdict = decide_backdoor(std::vector<double>(5, 0.0));
  EXPECT_FALSE(verdict.backdoored);
}

TEST(CaseCounts, RecordOnEmptyVerdictKeepsL1Undefined) {
  // A verdict with no per-class norms (empty scan) must not contribute a
  // bogus 0 to the population L1 statistic.
  CaseCounts counts;
  DetectionVerdict verdict;  // empty norms, clean
  counts.record(verdict, -1);
  EXPECT_EQ(counts.detected_clean, 1);
  EXPECT_EQ(counts.l1_count, 0);
  EXPECT_EQ(counts.mean_l1(), 0.0);
}

TEST(ClassifyTarget, AllOutcomes) {
  DetectionVerdict clean;
  clean.backdoored = false;
  EXPECT_EQ(classify_target(clean, 3), TargetOutcome::kNotDetected);

  DetectionVerdict exact;
  exact.backdoored = true;
  exact.flagged_classes = {3};
  EXPECT_EQ(classify_target(exact, 3), TargetOutcome::kCorrect);

  DetectionVerdict superset;
  superset.backdoored = true;
  superset.flagged_classes = {1, 3};
  EXPECT_EQ(classify_target(superset, 3), TargetOutcome::kCorrectSet);

  DetectionVerdict wrong;
  wrong.backdoored = true;
  wrong.flagged_classes = {1};
  EXPECT_EQ(classify_target(wrong, 3), TargetOutcome::kWrong);
}

TEST(CaseCounts, RecordsBackdooredPopulation) {
  CaseCounts counts;
  counts.method = "USB";

  DetectionVerdict hit;
  hit.backdoored = true;
  hit.flagged_classes = {0};
  hit.norms = std::vector<double>{4.0, 50.0, 52.0};
  counts.record(hit, 0);

  DetectionVerdict miss;
  miss.backdoored = false;
  miss.norms = std::vector<double>{40.0, 50.0, 52.0};
  counts.record(miss, 0);

  EXPECT_EQ(counts.detected_backdoored, 1);
  EXPECT_EQ(counts.detected_clean, 1);
  EXPECT_EQ(counts.correct, 1);
  EXPECT_EQ(counts.correct_set, 0);
  EXPECT_EQ(counts.wrong, 0);
  // L1 statistic is the true-target norm: (4.0 + 40.0) / 2.
  EXPECT_NEAR(counts.mean_l1(), 22.0, 1e-9);
}

TEST(CaseCounts, CleanPopulationUsesMeanNorm) {
  CaseCounts counts;
  DetectionVerdict verdict;
  verdict.backdoored = false;
  verdict.norms = std::vector<double>{10.0, 20.0, 30.0};
  counts.record(verdict, -1);
  EXPECT_NEAR(counts.mean_l1(), 20.0, 1e-9);
  EXPECT_EQ(counts.detected_clean, 1);
}

TEST(DecideBackdoor, NanEntriesArePeeledNotFlagged) {
  // Class 2 diverged (quarantined): its NaN must not poison the median/MAD
  // of the rest, and flagged indices must stay ORIGINAL class indices.
  const std::vector<double> norms{50, 52, std::numeric_limits<double>::quiet_NaN(), 51,
                                  49, 53, 47, 50, 4, 52};
  const DetectionVerdict verdict = decide_backdoor(norms);
  EXPECT_TRUE(verdict.backdoored);
  ASSERT_EQ(verdict.flagged_classes.size(), 1U);
  EXPECT_EQ(verdict.flagged_classes[0], 8);
  ASSERT_EQ(verdict.norms.size(), 10U);
  EXPECT_TRUE(std::isnan(verdict.norms[2]));
  ASSERT_EQ(verdict.anomaly.size(), 10U);
  EXPECT_TRUE(std::isnan(verdict.anomaly[2]));  // peeled: no anomaly score
  EXPECT_FALSE(std::isnan(verdict.anomaly[8]));
}

TEST(DecideBackdoor, PeeledOutlierDoesNotShiftVerdict) {
  // +inf is peeled like NaN. Left in, four +inf norms would lift the median
  // and the MAD far enough to hide class 8's shortcut.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> backdoored{50, 52, 48, 51, inf, inf, inf, inf, 20, 49};
  EXPECT_EQ(decide_backdoor(backdoored).flagged_classes, std::vector<std::int64_t>{8});

  // A clean profile with one +inf stays clean.
  std::vector<double> clean{50, 52, 48, 51, 49, 53, 47, 50, 46, 52};
  clean[4] = inf;
  EXPECT_FALSE(decide_backdoor(clean).backdoored);
}

TEST(DecideBackdoor, AllNonFiniteIsCleanAndWellDefined) {
  const std::vector<double> norms(5, std::numeric_limits<double>::quiet_NaN());
  const DetectionVerdict verdict = decide_backdoor(norms);
  EXPECT_FALSE(verdict.backdoored);
  EXPECT_TRUE(verdict.flagged_classes.empty());
  ASSERT_EQ(verdict.anomaly.size(), 5U);
  for (const double a : verdict.anomaly) EXPECT_TRUE(std::isnan(a));
}

}  // namespace
}  // namespace usb
