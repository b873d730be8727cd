// Unit tests of the benchmark harness arithmetic: span self time, medians,
// and report digests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

Span make_span(double start, double end, std::int64_t parent) {
  return Span{"s", start, end, parent, 0};
}

TEST(SelfTime, LeafIsItsDuration) {
  const std::vector<Span> spans = {make_span(1.0, 3.5, -1)};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 2.5);
}

TEST(SelfTime, SubtractsDisjointChildren) {
  const std::vector<Span> spans = {make_span(0.0, 10.0, -1), make_span(1.0, 3.0, 0),
                                   make_span(5.0, 6.0, 0)};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 7.0);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two parallel workers under one parent: [1,6] and [2,8] cover [1,8].
  const std::vector<Span> spans = {make_span(0.0, 10.0, -1), make_span(1.0, 6.0, 0),
                                   make_span(2.0, 8.0, 0), make_span(3.0, 4.0, 0)};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 3.0);
}

TEST(SelfTime, ClipsChildrenToTheParentAndIgnoresGrandchildren) {
  const std::vector<Span> spans = {make_span(2.0, 6.0, -1), make_span(1.0, 3.0, 0),
                                   make_span(5.0, 9.0, 0), make_span(1.5, 2.5, 1)};
  EXPECT_DOUBLE_EQ(self_time(spans, 0), 2.0);  // [3,5] uncovered
  EXPECT_DOUBLE_EQ(self_time(spans, 1), 1.0);  // its own child covers [1.5,2.5]
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder recorder(false);
  { const ScopedSpan span(recorder, "x", -1, 1); }
  EXPECT_TRUE(recorder.spans().empty());
}

TEST(SpanRecorder, NestsAndCloses) {
  SpanRecorder recorder(true);
  {
    const ScopedSpan outer(recorder, "outer", -1, 7);
    const ScopedSpan inner(recorder, "inner", outer.index(), 7);
  }
  const std::vector<Span> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].scan, 7);
  EXPECT_LE(spans[0].start, spans[1].start);
  EXPECT_GE(spans[0].end, spans[1].end);
  EXPECT_GE(self_time(spans, 0), 0.0);
}

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

usb::DetectionReport make_report(std::vector<double> norms, std::vector<std::int64_t> flagged) {
  usb::DetectionReport report;
  report.method = "USB";
  for (std::size_t t = 0; t < norms.size(); ++t) {
    usb::TriggerEstimate estimate;
    estimate.target_class = static_cast<std::int64_t>(t);
    estimate.mask_l1 = norms[t];
    report.per_class.push_back(estimate);
  }
  report.per_class_state.assign(norms.size(), usb::ClassScanState::kFinalized);
  report.verdict.flagged_classes = std::move(flagged);
  report.verdict.backdoored = !report.verdict.flagged_classes.empty();
  report.verdict.norms = std::move(norms);
  return report;
}

TEST(Digest, FnvOfKnownBytes) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(fnv1a(kFnvOffset, "", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(kFnvOffset, "a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(digest_hex(0xaf63dc4c8601ec8cULL), "af63dc4c8601ec8c");
}

TEST(Digest, CoversMaskBitsAndFlagsInOrder) {
  const usb::DetectionReport base = make_report({1.5, 2.5, 0.25}, {2});
  std::uint64_t expected = kFnvOffset;
  for (const double norm : {1.5, 2.5, 0.25}) expected = fnv1a(expected, &norm, sizeof norm);
  const std::int64_t flag = 2;
  expected = fnv1a(expected, &flag, sizeof flag);
  EXPECT_EQ(report_digest(base), expected);

  // One ulp in one statistic changes the digest.
  usb::DetectionReport nudged = base;
  nudged.per_class[1].mask_l1 = std::nextafter(2.5, 3.0);
  EXPECT_NE(report_digest(nudged), report_digest(base));
  // So does the flag set, and its order.
  EXPECT_NE(report_digest(make_report({1.5, 2.5, 0.25}, {})), report_digest(base));
  EXPECT_NE(report_digest(make_report({1.5, 2.5, 0.25}, {0, 2})),
            report_digest(make_report({1.5, 2.5, 0.25}, {2, 0})));
  // Timings are not part of it.
  usb::DetectionReport timed = base;
  timed.wall_seconds = 12.0;
  timed.per_class_seconds = {1.0, 2.0, 3.0};
  EXPECT_EQ(report_digest(timed), report_digest(base));
}

TEST(ReportsIdentical, BitwiseOnEverythingButTimings) {
  const usb::DetectionReport base = make_report({1.5, 2.5}, {0});
  usb::DetectionReport timed = base;
  timed.wall_seconds = 3.0;
  EXPECT_TRUE(reports_identical(base, timed));

  usb::DetectionReport fooled = base;
  fooled.per_class[0].fooling_rate = 0.5;
  EXPECT_FALSE(reports_identical(base, fooled));

  usb::DetectionReport masked = base;
  masked.per_class[1].mask = usb::Tensor(usb::Shape{2, 2});
  EXPECT_FALSE(reports_identical(base, masked));

  // -0.0 == 0.0 numerically but not bitwise.
  usb::DetectionReport zero = make_report({0.0, 2.5}, {0});
  usb::DetectionReport negative_zero = make_report({-0.0, 2.5}, {0});
  EXPECT_FALSE(reports_identical(zero, negative_zero));
}

}  // namespace
}  // namespace perfbench
