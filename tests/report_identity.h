// Bit-identity checks for detection reports: every field a scan computes,
// none of its wall-clock timings. The determinism contract promises the
// same report bytes whichever schedule, pool width, dispatch variant,
// service or fleet worker ran the scan; the identity suites pin it here.
#pragma once

#include <gtest/gtest.h>

#include "defenses/detector.h"

namespace usb {

inline void expect_estimates_identical(const TriggerEstimate& a, const TriggerEstimate& b) {
  EXPECT_EQ(a.target_class, b.target_class);
  EXPECT_EQ(a.mask_l1, b.mask_l1);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.fooling_rate, b.fooling_rate);
  EXPECT_TRUE(a.pattern.equals(b.pattern));
  EXPECT_TRUE(a.mask.equals(b.mask));
}

inline void expect_reports_identical(const DetectionReport& a, const DetectionReport& b) {
  EXPECT_EQ(a.method, b.method);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (std::size_t t = 0; t < a.per_class.size(); ++t) {
    expect_estimates_identical(a.per_class[t], b.per_class[t]);
  }
  EXPECT_EQ(a.verdict.backdoored, b.verdict.backdoored);
  EXPECT_EQ(a.verdict.flagged_classes, b.verdict.flagged_classes);
  EXPECT_EQ(a.verdict.norms, b.verdict.norms);
  EXPECT_EQ(a.verdict.anomaly, b.verdict.anomaly);
  EXPECT_EQ(a.per_class_state, b.per_class_state);
}

}  // namespace usb
