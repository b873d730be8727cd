// Tests for the utility layer: serialization, tables, image I/O, timers,
// env config, and the deterministic thread pool.
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "utils/config.h"
#include "utils/image_io.h"
#include "utils/serialize.h"
#include "utils/table.h"
#include "utils/thread_pool.h"
#include "utils/timer.h"

namespace usb {
namespace {

TEST(Serialize, RoundTripAllTypes) {
  BinaryWriter writer;
  writer.write_u32(0xABCD1234);
  writer.write_i64(-42);
  writer.write_f32(3.5F);
  writer.write_string("universal soldier");
  const std::vector<float> floats{1.0F, -2.0F, 0.5F};
  writer.write_floats(floats);
  const std::vector<std::int64_t> ints{7, -9};
  writer.write_i64s(ints);

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.read_u32(), 0xABCD1234U);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_EQ(reader.read_f32(), 3.5F);
  EXPECT_EQ(reader.read_string(), "universal soldier");
  EXPECT_EQ(reader.read_floats(), floats);
  EXPECT_EQ(reader.read_i64s(), ints);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, EmptyVectorsAndStringRoundTrip) {
  // Zero-length payloads: the reader must not hand memcpy an empty
  // vector's (possibly null) data() pointer.
  BinaryWriter writer;
  writer.write_floats(std::vector<float>{});
  writer.write_i64s(std::vector<std::int64_t>{});
  writer.write_f64s(std::vector<double>{});
  writer.write_string("");

  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.read_floats().empty());
  EXPECT_TRUE(reader.read_i64s().empty());
  EXPECT_TRUE(reader.read_f64s().empty());
  EXPECT_EQ(reader.read_string(), "");
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialize, TruncationThrows) {
  BinaryWriter writer;
  writer.write_u32(7);
  BinaryReader reader(writer.buffer());
  (void)reader.read_u32();
  EXPECT_THROW((void)reader.read_i64(), std::runtime_error);
}

TEST(Serialize, FileRoundTripAndExists) {
  const std::string path = ::testing::TempDir() + "serialize_test.bin";
  BinaryWriter writer;
  writer.write_string("persisted");
  writer.save(path);
  EXPECT_TRUE(file_exists(path));
  BinaryReader reader = BinaryReader::from_file(path);
  EXPECT_EQ(reader.read_string(), "persisted");
  std::remove(path.c_str());
  EXPECT_FALSE(file_exists(path));
}

TEST(Table, RendersAlignedColumns) {
  Table table({"a", "long header", "c"});
  table.add_row({"1", "2", "3"});
  table.add_row({"wide cell", "x"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("long header"), std::string::npos);
  EXPECT_NE(out.find("wide cell"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2);
  // Every rendered line has equal width.
  std::size_t first_line = out.find('\n');
  const std::string line0 = out.substr(0, first_line);
  std::size_t pos = 0;
  for (std::size_t next = out.find('\n', pos); next != std::string::npos;
       pos = next + 1, next = out.find('\n', pos)) {
    EXPECT_EQ(next - pos, line0.size());
  }
}

TEST(Table, Formatters) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
  EXPECT_EQ(format_percent(0.9533), "95.33");
}

TEST(Timer, FormatMinutesSeconds) {
  EXPECT_EQ(format_minutes_seconds(0.0), "0:00");
  EXPECT_EQ(format_minutes_seconds(61.0), "1:01");
  EXPECT_EQ(format_minutes_seconds(267.12), "4:27");
  EXPECT_EQ(format_minutes_seconds(-5.0), "0:00");
}

TEST(Timer, MeasuresElapsed) {
  const Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_GE(timer.milliseconds(), timer.seconds() * 1000.0 - 1.0);
}

TEST(Config, EnvParsingWithFallbacks) {
  ::setenv("USB_TEST_INT", "42", 1);
  ::setenv("USB_TEST_BOOL", "true", 1);
  ::setenv("USB_TEST_STRING", "hello", 1);
  EXPECT_EQ(env_int("USB_TEST_INT", 0), 42);
  EXPECT_TRUE(env_bool("USB_TEST_BOOL", false));
  EXPECT_EQ(env_string("USB_TEST_STRING", ""), "hello");
  EXPECT_EQ(env_int("USB_TEST_MISSING", 7), 7);
  ::setenv("USB_TEST_INT", "notanumber", 1);
  EXPECT_EQ(env_int("USB_TEST_INT", 9), 9);
  ::unsetenv("USB_TEST_INT");
  ::unsetenv("USB_TEST_BOOL");
  ::unsetenv("USB_TEST_STRING");
}

TEST(Config, FastModeShrinksBudgets) {
  ::setenv("USB_FAST", "1", 1);
  const ExperimentScale scale = ExperimentScale::from_env();
  EXPECT_LE(scale.models_per_case, 2);
  EXPECT_LE(scale.train_size, 800);
  ::unsetenv("USB_FAST");
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(100,
                            [](std::int64_t begin, std::int64_t) {
                              if (begin >= 0) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> count{0};
  parallel_for(10, [&](std::int64_t begin, std::int64_t end) {
    count += static_cast<int>(end - begin);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedCallsRunInline) {
  std::atomic<int> total{0};
  parallel_for(8, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      // Nested parallel_for from a worker must not deadlock.
      parallel_for(4, [&](std::int64_t b, std::int64_t e) {
        total += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ImageIo, WriteAndStripAndNormalize) {
  Image image;
  image.channels = 3;
  image.height = 4;
  image.width = 4;
  image.pixels.assign(48, 0.5F);
  const std::string path = ::testing::TempDir() + "img_test.ppm";
  write_image(image, path);
  EXPECT_TRUE(file_exists(path));
  std::remove(path.c_str());

  const std::vector<Image> strip_images{image, image, image};
  const std::string strip_path = ::testing::TempDir() + "strip_test.ppm";
  write_image_strip(strip_images, strip_path, 2);
  EXPECT_TRUE(file_exists(strip_path));
  std::remove(strip_path.c_str());

  const std::vector<float> values{-3.0F, 0.0F, 5.0F, 1.0F};
  const Image normalized = normalize_to_image(values, 1, 2, 2);
  EXPECT_EQ(normalized.pixels[0], 0.0F);
  EXPECT_EQ(normalized.pixels[2], 1.0F);
}

TEST(ImageIo, ValidationErrors) {
  Image bad;
  bad.channels = 2;  // only 1 or 3 supported
  bad.height = 2;
  bad.width = 2;
  bad.pixels.assign(8, 0.0F);
  EXPECT_THROW(write_image(bad, "/tmp/never.ppm"), std::invalid_argument);
  EXPECT_THROW((void)normalize_to_image(std::vector<float>{1.0F}, 1, 2, 2),
               std::invalid_argument);
}

TEST(ImageIo, AsciiArtDimensions) {
  Image image;
  image.channels = 1;
  image.height = 8;
  image.width = 8;
  image.pixels.assign(64, 1.0F);
  const std::vector<std::string> art = ascii_art(image, 8);
  EXPECT_EQ(art.size(), 8U);
  EXPECT_EQ(art[0].size(), 16U);  // double-width cells
  EXPECT_EQ(art[0][0], '@');      // bright pixel -> densest glyph
}

}  // namespace
}  // namespace usb
