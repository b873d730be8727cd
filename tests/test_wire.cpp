// Wire protocol: exact round trips and hostile-input strictness.
//
// The load-bearing contracts under test:
//  - encode/decode round trips are EXACT for both record types — verified
//    the strong way, by re-encoding the decoded value and comparing the
//    byte vectors (doubles travel as raw IEEE bits, so even the NaN
//    mask_l1 of a quarantined class survives);
//  - a request that crossed the wire produces a report byte-identical to
//    the locally built request's;
//  - corrupt input of ANY kind — truncation at every byte length, bad
//    magic/version/record tag, oversized or negative length prefixes,
//    single-byte corruption at every offset — throws WireError and never
//    crashes. This suite runs under the ASan and UBSan CI jobs, which is
//    where "never crashes" becomes "never UB".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/usb.h"
#include "data/synthetic.h"
#include "defenses/neural_cleanse.h"
#include "nn/checkpoint.h"
#include "nn/trainer.h"
#include "service/detection_service.h"
#include "service/wire.h"
#include "utils/serialize.h"
#include "utils/timer.h"

namespace usb {
namespace {

// A request exercising every serialized field, zoo form.
wire::WireScanRequest sample_zoo_request() {
  wire::WireScanRequest request;
  request.request_id = 0x1122334455667788ULL;  // v2: every bit must survive
  ModelCaseSpec spec;
  spec.dataset = DatasetSpec::gtsrb_like();
  spec.arch = Architecture::kMiniEffNet;
  spec.attack.kind = AttackKind::kIad;
  spec.attack.trigger_size = 4;
  spec.attack.target_class = 7;
  spec.attack.poison_rate = 0.12345678901234567;
  spec.attack.seed = 0xdeadbeefcafef00dULL;
  spec.model_index = 3;
  spec.scale.models_per_case = 5;
  spec.scale.epochs = 2;
  spec.scale.train_size = 1234;
  spec.scale.test_size = 321;
  spec.scale.fast = true;
  spec.scale.model_cache_dir = "/tmp/zoo-cache";
  request.model_ref = ModelRef::from_zoo(std::move(spec));
  request.probe_key = ProbeKey{DatasetSpec::mnist_like(), 300, 0x9e0beULL};
  request.method = "USB";
  request.options.deadline_seconds = 12.75;
  request.options.max_retries = 4;
  request.options.retry_backoff_seconds = 0.125;
  return request;
}

wire::WireScanRequest sample_checkpoint_request() {
  wire::WireScanRequest request;
  request.model_ref = ModelRef::from_checkpoint("/models/fleet/worker-17.ckpt");
  request.probe_key = ProbeKey{DatasetSpec::cifar10_like(), 96, 42};
  request.method = "NC";
  return request;
}

// A result exercising every serialized field, including a quarantined
// class whose statistic is NaN and a partial per-class state vector.
wire::WireScanResult sample_result() {
  wire::WireScanResult result;
  result.request_id = 0xFFFFFFFFFFFFFFFFULL;  // v2 echo, extreme value
  result.status = ScanStatus::kTimedOut;
  result.error = "deadline expired after 2 classes";
  result.retries = 2;
  DetectionReport& report = result.report;
  report.method = "USB";
  report.per_class.resize(3);
  for (std::size_t t = 0; t < 3; ++t) {
    TriggerEstimate& estimate = report.per_class[t];
    estimate.target_class = static_cast<std::int64_t>(t);
    estimate.pattern = Tensor(Shape({1, 4, 4}));
    estimate.mask = Tensor(Shape({4, 4}));
    for (std::int64_t i = 0; i < 16; ++i) {
      estimate.pattern.data()[i] = 0.0625F * static_cast<float>(i + t);
      estimate.mask.data()[i] = 1.0F - 0.03125F * static_cast<float>(i);
    }
    estimate.mask_l1 = 3.25 + static_cast<double>(t);
    estimate.final_loss = 0.001953125;
    estimate.fooling_rate = 0.96875;
  }
  // Quarantined class: NaN statistic must survive the wire bit-for-bit.
  report.per_class[1].mask_l1 = std::numeric_limits<double>::quiet_NaN();
  report.per_class_state = {ClassScanState::kFinalized, ClassScanState::kNumericallyUnstable,
                            ClassScanState::kRefining};
  report.verdict.backdoored = true;
  report.verdict.flagged_classes = {0};
  report.verdict.norms = {3.25, std::numeric_limits<double>::quiet_NaN(), 5.25};
  report.verdict.anomaly = {-2.5, 0.0, 1.5};
  report.per_class_seconds = {0.25, 0.5, 0.0};
  report.wall_seconds = 1.75;
  return result;
}

// Re-encoding the decoded value must reproduce the input bytes exactly.
// This is stronger than field-by-field comparison: nothing can be dropped,
// defaulted, or rounded without the byte vectors diverging.
template <typename Encode, typename Decode>
void expect_exact_round_trip(Encode encode, Decode decode) {
  const std::vector<std::uint8_t> once = encode();
  const auto decoded = decode(once);
  std::vector<std::uint8_t> twice;
  if constexpr (std::is_same_v<std::decay_t<decltype(decoded)>, wire::WireScanRequest>) {
    twice = wire::encode_request(decoded);
  } else {
    twice = wire::encode_result(decoded);
  }
  EXPECT_EQ(once, twice) << "decode -> encode did not reproduce the bytes";
}

TEST(Wire, RequestRoundTripIsExactZooForm) {
  expect_exact_round_trip([] { return wire::encode_request(sample_zoo_request()); },
                          [](const std::vector<std::uint8_t>& bytes) {
                            return wire::decode_request(bytes);
                          });
  // Spot-check the semantically load-bearing fields survived too.
  const wire::WireScanRequest decoded =
      wire::decode_request(wire::encode_request(sample_zoo_request()));
  EXPECT_EQ(decoded.request_id, 0x1122334455667788ULL);
  ASSERT_TRUE(decoded.model_ref.zoo.has_value());
  EXPECT_EQ(decoded.model_ref.key(), sample_zoo_request().model_ref.key());
  EXPECT_EQ(decoded.probe_key, sample_zoo_request().probe_key);
  EXPECT_EQ(decoded.method, "USB");
  EXPECT_EQ(decoded.options.deadline_seconds, 12.75);
  EXPECT_EQ(decoded.options.max_retries, 4);
  EXPECT_EQ(decoded.options.retry_backoff_seconds, 0.125);
}

TEST(Wire, RequestRoundTripIsExactCheckpointForm) {
  expect_exact_round_trip([] { return wire::encode_request(sample_checkpoint_request()); },
                          [](const std::vector<std::uint8_t>& bytes) {
                            return wire::decode_request(bytes);
                          });
  const wire::WireScanRequest decoded =
      wire::decode_request(wire::encode_request(sample_checkpoint_request()));
  EXPECT_EQ(decoded.model_ref.checkpoint_path, "/models/fleet/worker-17.ckpt");
  // Default options survive as the defaults: no deadline, no retries.
  EXPECT_EQ(decoded.options.deadline_seconds, 0.0);
  EXPECT_EQ(decoded.options.max_retries, 0);
  EXPECT_EQ(decoded.options.retry_backoff_seconds, 0.05);
}

// The option doubles a server times by must be ones a sound peer sends: a
// non-finite deadline or backoff, or one past kMaxSpanSeconds (which the
// service would only clamp), marks a corrupt or hostile one. Each such
// value is a WireError; the limits themselves and negative (disabled)
// values still decode.
TEST(Wire, NonFiniteOrOutOfRangeOptionValuesThrow) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto decodes = [](void (*set)(ScanOptions&, double), double value) {
    wire::WireScanRequest request = sample_checkpoint_request();
    set(request.options, value);
    (void)wire::decode_request(wire::encode_request(request));
  };
  const auto set_deadline = [](ScanOptions& options, double value) {
    options.deadline_seconds = value;
  };
  const auto set_backoff = [](ScanOptions& options, double value) {
    options.retry_backoff_seconds = value;
  };
  for (const double bad : {kNaN, kInf, -kInf, 1e300, kMaxSpanSeconds * 2}) {
    EXPECT_THROW(decodes(set_deadline, bad), wire::WireError) << "deadline " << bad;
    EXPECT_THROW(decodes(set_backoff, bad), wire::WireError) << "backoff " << bad;
  }
  for (const double good : {-1.0, 0.0, kMaxSpanSeconds}) {
    EXPECT_NO_THROW(decodes(set_deadline, good)) << "deadline " << good;
    EXPECT_NO_THROW(decodes(set_backoff, good)) << "backoff " << good;
  }
}

TEST(Wire, ResultRoundTripIsExactIncludingNaN) {
  expect_exact_round_trip([] { return wire::encode_result(sample_result()); },
                          [](const std::vector<std::uint8_t>& bytes) {
                            return wire::decode_result(bytes);
                          });
  const wire::WireScanResult decoded = wire::decode_result(wire::encode_result(sample_result()));
  EXPECT_EQ(decoded.status, ScanStatus::kTimedOut);
  EXPECT_EQ(decoded.retries, 2);
  EXPECT_TRUE(std::isnan(decoded.report.per_class[1].mask_l1));
  EXPECT_TRUE(std::isnan(decoded.report.verdict.norms[1]));
  EXPECT_TRUE(decoded.report.per_class[0].pattern.equals(sample_result().report.per_class[0].pattern));
  EXPECT_EQ(decoded.report.per_class_state, sample_result().report.per_class_state);
}

// The acceptance-criteria pin: a request that crossed the wire produces a
// report byte-identical to the locally built one.
TEST(Wire, DecodedRequestProducesIdenticalReport) {
  DatasetSpec spec;
  spec.name = "wire-tiny";
  spec.channels = 1;
  spec.image_size = 16;
  spec.num_classes = 4;
  Network victim = make_network(Architecture::kBasicCnn, spec.channels, spec.image_size,
                                spec.num_classes, /*seed=*/61);
  const std::string path = testing::TempDir() + "wire_roundtrip.ckpt";
  save_checkpoint(victim, path);

  wire::WireScanRequest local;
  local.model_ref = ModelRef::from_checkpoint(path);
  local.probe_key = ProbeKey{spec, 32, /*seed=*/62};
  local.method = "NC";
  const wire::WireScanRequest remote = wire::decode_request(wire::encode_request(local));

  DetectionService service;
  auto submit = [&](const wire::WireScanRequest& request) {
    ReverseOptConfig config;
    config.steps = 4;
    ScanRequest scan;
    scan.model_ref = request.model_ref;
    scan.detector = std::make_unique<NeuralCleanse>(config);
    scan.probe_key = request.probe_key;
    scan.options = request.options;
    return service.submit(std::move(scan));
  };
  const ScanHandle local_handle = submit(local);
  const ScanHandle remote_handle = submit(remote);
  const ScanOutcome& local_outcome = local_handle.wait();
  const ScanOutcome& remote_outcome = remote_handle.wait();
  ASSERT_EQ(local_outcome.status, ScanStatus::kDone) << local_outcome.error;
  ASSERT_EQ(remote_outcome.status, ScanStatus::kDone) << remote_outcome.error;

  // Byte-identical: serialize both reports and compare the byte vectors.
  // Timing fields are wall-clock (the one legitimately non-deterministic
  // part of a report) and are zeroed; everything else must match exactly.
  auto serialized_without_timing = [](const ScanOutcome& outcome) {
    wire::WireScanResult result;
    result.status = outcome.status;
    result.report = outcome.report;
    result.report.per_class_seconds.assign(result.report.per_class_seconds.size(), 0.0);
    result.report.wall_seconds = 0.0;
    return wire::encode_result(result);
  };
  EXPECT_EQ(serialized_without_timing(local_outcome), serialized_without_timing(remote_outcome));
}

TEST(Wire, TruncationAtEveryLengthThrows) {
  for (const std::vector<std::uint8_t>& full :
       {wire::encode_request(sample_zoo_request()), wire::encode_result(sample_result())}) {
    const bool is_request = full == wire::encode_request(sample_zoo_request());
    for (std::size_t length = 0; length < full.size(); ++length) {
      const std::span<const std::uint8_t> cut(full.data(), length);
      if (is_request) {
        EXPECT_THROW((void)wire::decode_request(cut), wire::WireError) << "length " << length;
      } else {
        EXPECT_THROW((void)wire::decode_result(cut), wire::WireError) << "length " << length;
      }
    }
  }
}

TEST(Wire, SingleByteCorruptionNeverCrashes) {
  // Flip every byte of a valid encoding in turn; decode must either
  // succeed (the byte was slack in a float/string) or throw WireError —
  // anything else (crash, other exception type, UB under the sanitizer
  // jobs) fails the test.
  const std::vector<std::uint8_t> request_bytes = wire::encode_request(sample_zoo_request());
  for (std::size_t i = 0; i < request_bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupt = request_bytes;
    corrupt[i] ^= 0xFF;
    try {
      (void)wire::decode_request(corrupt);
    } catch (const wire::WireError&) {
    }
  }
  const std::vector<std::uint8_t> result_bytes = wire::encode_result(sample_result());
  for (std::size_t i = 0; i < result_bytes.size(); ++i) {
    std::vector<std::uint8_t> corrupt = result_bytes;
    corrupt[i] ^= 0xFF;
    try {
      (void)wire::decode_result(corrupt);
    } catch (const wire::WireError&) {
    }
  }
}

TEST(Wire, BadMagicVersionAndRecordTagThrow) {
  std::vector<std::uint8_t> bytes = wire::encode_request(sample_checkpoint_request());
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW((void)wire::decode_request(bad), wire::WireError);
  }
  // A foreign version, and the previous one (whose requests carried
  // fields this version dropped).
  for (const std::uint32_t version : {0xFEU, wire::kVersion - 1}) {
    std::vector<std::uint8_t> bad = bytes;
    bad[4] = static_cast<std::uint8_t>(version);  // low byte of the version word
    try {
      (void)wire::decode_request(bad);
      FAIL() << "version " << version << " must throw";
    } catch (const wire::WireError& error) {
      EXPECT_NE(std::string(error.what()).find("version"), std::string::npos) << error.what();
    }
  }
  {
    std::vector<std::uint8_t> bad = bytes;
    bad[8] = 7;  // record tag
    EXPECT_THROW((void)wire::decode_request(bad), wire::WireError);
  }
  // A result frame fed to the request decoder (and vice versa) is a clean
  // record-type error, not a misparse.
  EXPECT_THROW((void)wire::decode_request(wire::encode_result(sample_result())),
               wire::WireError);
  EXPECT_THROW((void)wire::decode_result(bytes), wire::WireError);
}

TEST(Wire, OversizedAndNegativeLengthPrefixesThrowBeforeAllocation) {
  // Hand-craft a checkpoint-form request whose path length claims 2^40
  // bytes: the decoder must reject it against the remaining input, not
  // attempt the allocation.
  for (const std::int64_t claimed : {std::int64_t{1} << 40, std::int64_t{-8}}) {
    BinaryWriter writer;
    writer.write_u32(wire::kMagic);
    writer.write_u32(wire::kVersion);
    writer.write_u32(1);        // request record
    writer.write_i64(7);        // request id (v2)
    writer.write_u32(0);        // checkpoint form
    writer.write_i64(claimed);  // string length prefix, no payload behind it
    EXPECT_THROW((void)wire::decode_request(writer.buffer()), wire::WireError)
        << "claimed length " << claimed;
  }
}

TEST(Wire, TrailingBytesThrow) {
  std::vector<std::uint8_t> bytes = wire::encode_request(sample_checkpoint_request());
  bytes.push_back(0);
  EXPECT_THROW((void)wire::decode_request(bytes), wire::WireError);
}

TEST(Wire, FrameRoundTripAndTruncation) {
  const std::vector<std::uint8_t> payload = wire::encode_request(sample_zoo_request());
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  wire::write_frame(file, payload);
  wire::write_frame(file, payload);
  std::rewind(file);
  std::vector<std::uint8_t> read_back;
  ASSERT_TRUE(wire::read_frame(file, read_back));
  EXPECT_EQ(read_back, payload);
  ASSERT_TRUE(wire::read_frame(file, read_back));
  EXPECT_EQ(read_back, payload);
  // Clean end-of-stream is false, not an error.
  EXPECT_FALSE(wire::read_frame(file, read_back));
  std::fclose(file);

  // Truncated payload: frame promises more bytes than the stream holds.
  file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  const std::uint32_t length = 1000;
  std::fwrite(&length, sizeof(length), 1, file);
  std::fputc(0x42, file);
  std::rewind(file);
  EXPECT_THROW((void)wire::read_frame(file, read_back), wire::WireError);
  std::fclose(file);

  // Truncated header: some but not all of the length prefix.
  file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  std::fputc(0x01, file);
  std::rewind(file);
  EXPECT_THROW((void)wire::read_frame(file, read_back), wire::WireError);
  std::fclose(file);

  // A frame length past the cap is rejected before any allocation.
  file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  const std::uint32_t huge = 0xFFFFFFFFU;
  std::fwrite(&huge, sizeof(huge), 1, file);
  std::rewind(file);
  EXPECT_THROW((void)wire::read_frame(file, read_back, /*max_frame_bytes=*/1024),
               wire::WireError);
  std::fclose(file);
}

TEST(Wire, PingPongRoundTripAndStrictness) {
  const std::uint64_t nonce = 0xA5A5A5A5DEADBEEFULL;
  EXPECT_EQ(wire::decode_ping(wire::encode_ping(nonce)), nonce);
  EXPECT_EQ(wire::decode_pong(wire::encode_pong(nonce)), nonce);
  // Record types don't cross: a ping fed to decode_pong (and vice versa)
  // is a clean error.
  EXPECT_THROW((void)wire::decode_pong(wire::encode_ping(nonce)), wire::WireError);
  EXPECT_THROW((void)wire::decode_ping(wire::encode_pong(nonce)), wire::WireError);
  // Truncation at every length throws.
  const std::vector<std::uint8_t> full = wire::encode_ping(nonce);
  for (std::size_t length = 0; length < full.size(); ++length) {
    EXPECT_THROW((void)wire::decode_ping({full.data(), length}), wire::WireError)
        << "length " << length;
  }
  // Trailing bytes throw.
  std::vector<std::uint8_t> trailing = full;
  trailing.push_back(0);
  EXPECT_THROW((void)wire::decode_ping(trailing), wire::WireError);
}

TEST(Wire, PeekRecordDispatchesWithoutDecoding) {
  EXPECT_EQ(wire::peek_record(wire::encode_request(sample_checkpoint_request())),
            wire::kRequestRecord);
  EXPECT_EQ(wire::peek_record(wire::encode_result(sample_result())), wire::kResultRecord);
  EXPECT_EQ(wire::peek_record(wire::encode_ping(1)), wire::kPingRecord);
  EXPECT_EQ(wire::peek_record(wire::encode_pong(1)), wire::kPongRecord);

  std::vector<std::uint8_t> bytes = wire::encode_ping(1);
  for (std::size_t length = 0; length < 12; ++length) {
    EXPECT_THROW((void)wire::peek_record({bytes.data(), length}), wire::WireError);
  }
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)wire::peek_record(bad_magic), wire::WireError);
  for (const std::uint32_t version : {0x7FU, wire::kVersion - 1}) {
    std::vector<std::uint8_t> bad_version = bytes;
    bad_version[4] = static_cast<std::uint8_t>(version);
    EXPECT_THROW((void)wire::peek_record(bad_version), wire::WireError) << "version " << version;
  }
  std::vector<std::uint8_t> bad_tag = bytes;
  bad_tag[8] = 99;
  EXPECT_THROW((void)wire::peek_record(bad_tag), wire::WireError);
}

TEST(Wire, InterruptFlagStopsReadLikeCleanEof) {
  // A set interrupt flag makes read_frame report end-of-stream instead of
  // blocking — the mechanism behind the worker's SIGTERM graceful drain.
  // The stream below HAS a full frame waiting; the flag wins anyway
  // because it is checked before each read.
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  wire::write_frame(file, wire::encode_ping(42));
  std::rewind(file);
  std::atomic<bool> interrupt{true};
  std::vector<std::uint8_t> payload;
  EXPECT_FALSE(wire::read_frame(file, payload, wire::kDefaultMaxFrameBytes, &interrupt));
  // Cleared flag: the same stream now yields the frame.
  interrupt.store(false);
  ASSERT_TRUE(wire::read_frame(file, payload, wire::kDefaultMaxFrameBytes, &interrupt));
  EXPECT_EQ(wire::decode_ping(payload), 42ULL);
  std::fclose(file);
}

}  // namespace
}  // namespace usb
