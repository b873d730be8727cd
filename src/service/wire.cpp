#include "service/wire.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <limits>
#include <mutex>
#include <utility>

#include "utils/serialize.h"
#include "utils/timer.h"

namespace usb::wire {
namespace {

constexpr std::int64_t kMaxTensorRank = 8;
constexpr std::int64_t kMaxTensorNumel = 1LL << 40;

void require(bool condition, const char* what) {
  if (!condition) throw WireError(what);
}

void write_header(BinaryWriter& writer, std::uint32_t record) {
  writer.write_u32(kMagic);
  writer.write_u32(kVersion);
  writer.write_u32(record);
}

/// Checks magic and exact version, then returns the record tag unchecked.
std::uint32_t read_record_tag(BinaryReader& reader) {
  require(reader.read_u32() == kMagic, "bad magic");
  const std::uint32_t version = reader.read_u32();
  if (version != kVersion) {
    throw WireError("unsupported format version " + std::to_string(version) + " (want " +
                    std::to_string(kVersion) + ")");
  }
  return reader.read_u32();
}

void read_header(BinaryReader& reader, std::uint32_t record) {
  require(read_record_tag(reader) == record, "wrong record type");
}

void write_bool(BinaryWriter& writer, bool value) {
  writer.write_u32(value ? 1U : 0U);
}

bool read_bool(BinaryReader& reader) {
  const std::uint32_t value = reader.read_u32();
  require(value <= 1U, "bool tag out of range");
  return value == 1U;
}

void write_dataset_spec(BinaryWriter& writer, const DatasetSpec& spec) {
  writer.write_string(spec.name);
  writer.write_i64(spec.channels);
  writer.write_i64(spec.image_size);
  writer.write_i64(spec.num_classes);
}

DatasetSpec read_dataset_spec(BinaryReader& reader) {
  DatasetSpec spec;
  spec.name = reader.read_string();
  spec.channels = reader.read_i64();
  spec.image_size = reader.read_i64();
  spec.num_classes = reader.read_i64();
  return spec;
}

void check_dataset_spec(const DatasetSpec& spec) {
  require(spec.channels > 0 && spec.channels <= 16, "dataset channels out of range");
  require(spec.image_size > 0 && spec.image_size <= 4096, "dataset image_size out of range");
  require(spec.num_classes > 0 && spec.num_classes <= 65536, "dataset num_classes out of range");
}

void write_tensor(BinaryWriter& writer, const Tensor& tensor) {
  writer.write_i64s(tensor.shape().dims);
  writer.write_floats(tensor.data());
}

Tensor read_tensor(BinaryReader& reader) {
  std::vector<std::int64_t> dims = reader.read_i64s();
  require(static_cast<std::int64_t>(dims.size()) <= kMaxTensorRank, "tensor rank out of range");
  std::int64_t numel = 1;
  for (const std::int64_t dim : dims) {
    require(dim >= 0, "negative tensor dimension");
    require(dim == 0 || numel <= kMaxTensorNumel / std::max<std::int64_t>(dim, 1),
            "tensor numel out of range");
    numel *= dim;
  }
  std::vector<float> values = reader.read_floats();
  require(static_cast<std::int64_t>(values.size()) == numel,
          "tensor payload does not match its shape");
  if (dims.empty() && values.empty()) return Tensor();
  return Tensor(Shape(std::move(dims)), std::move(values));
}

void write_report(BinaryWriter& writer, const DetectionReport& report) {
  writer.write_string(report.method);
  const std::int64_t num_classes = static_cast<std::int64_t>(report.per_class.size());
  writer.write_i64(num_classes);
  for (const TriggerEstimate& estimate : report.per_class) {
    writer.write_i64(estimate.target_class);
    write_tensor(writer, estimate.pattern);
    write_tensor(writer, estimate.mask);
    writer.write_f64(estimate.mask_l1);
    writer.write_f64(estimate.final_loss);
    writer.write_f64(estimate.fooling_rate);
  }
  std::vector<std::int64_t> states;
  states.reserve(report.per_class_state.size());
  for (const ClassScanState state : report.per_class_state) {
    states.push_back(static_cast<std::int64_t>(state));
  }
  writer.write_i64s(states);
  write_bool(writer, report.verdict.backdoored);
  writer.write_i64s(report.verdict.flagged_classes);
  writer.write_f64s(report.verdict.norms);
  writer.write_f64s(report.verdict.anomaly);
  writer.write_f64s(report.per_class_seconds);
  writer.write_f64(report.wall_seconds);
}

DetectionReport read_report(BinaryReader& reader) {
  DetectionReport report;
  report.method = reader.read_string();
  const std::int64_t num_classes = reader.read_i64();
  // Every per-class entry encodes >= 8 bytes, so the count is bounded by
  // the bytes actually present — a corrupt huge count throws here instead
  // of driving a giant resize.
  require(num_classes >= 0 &&
              static_cast<std::uint64_t>(num_classes) <= reader.remaining() / 8,
          "per-class count exceeds remaining input");
  report.per_class.resize(static_cast<std::size_t>(num_classes));
  for (TriggerEstimate& estimate : report.per_class) {
    estimate.target_class = reader.read_i64();
    estimate.pattern = read_tensor(reader);
    estimate.mask = read_tensor(reader);
    estimate.mask_l1 = reader.read_f64();
    estimate.final_loss = reader.read_f64();
    estimate.fooling_rate = reader.read_f64();
  }
  const std::vector<std::int64_t> states = reader.read_i64s();
  report.per_class_state.reserve(states.size());
  for (const std::int64_t state : states) {
    require(state >= 0 &&
                state <= static_cast<std::int64_t>(ClassScanState::kNumericallyUnstable),
            "per-class state tag out of range");
    report.per_class_state.push_back(static_cast<ClassScanState>(state));
  }
  report.verdict.backdoored = read_bool(reader);
  report.verdict.flagged_classes = reader.read_i64s();
  report.verdict.norms = reader.read_f64s();
  report.verdict.anomaly = reader.read_f64s();
  report.per_class_seconds = reader.read_f64s();
  report.wall_seconds = reader.read_f64();
  return report;
}

/// Wraps serializer-level throws (truncation, bad length prefixes) into
/// WireError; WireError itself passes through untouched.
template <typename Fn>
auto decode_guard(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& error) {
    throw WireError(error.what());
  }
}

}  // namespace

void check_request(const WireScanRequest& request) {
  require(!request.model_ref.checkpoint_path.empty(), "empty checkpoint path");
  check_dataset_spec(request.probe_key.spec);
  require(request.probe_key.probe_size > 0, "probe_size out of range");
  const double deadline = request.options.deadline_seconds;
  require(std::isfinite(deadline) && deadline <= kMaxSpanSeconds, "deadline_seconds out of range");
}

std::vector<std::uint8_t> encode_request(const WireScanRequest& request) {
  BinaryWriter writer;
  write_header(writer, kRequestRecord);
  writer.write_i64(static_cast<std::int64_t>(request.request_id));
  writer.write_string(request.model_ref.checkpoint_path);
  write_dataset_spec(writer, request.probe_key.spec);
  writer.write_i64(request.probe_key.probe_size);
  writer.write_i64(static_cast<std::int64_t>(request.probe_key.seed));
  writer.write_string(request.method);
  // `progress` is deliberately absent: callbacks cannot cross the wire.
  writer.write_f64(request.options.deadline_seconds);
  return writer.buffer();
}

WireScanRequest decode_request(std::span<const std::uint8_t> bytes) {
  return decode_guard([&] {
    BinaryReader reader(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    read_header(reader, kRequestRecord);
    WireScanRequest request;
    request.request_id = static_cast<std::uint64_t>(reader.read_i64());
    request.model_ref = ModelRef::from_checkpoint(reader.read_string());
    request.probe_key.spec = read_dataset_spec(reader);
    request.probe_key.probe_size = reader.read_i64();
    request.probe_key.seed = static_cast<std::uint64_t>(reader.read_i64());
    request.method = reader.read_string();
    request.options.deadline_seconds = reader.read_f64();
    require(reader.exhausted(), "trailing bytes after request");
    check_request(request);
    return request;
  });
}

std::vector<std::uint8_t> encode_result(const WireScanResult& result) {
  BinaryWriter writer;
  write_header(writer, kResultRecord);
  writer.write_i64(static_cast<std::int64_t>(result.request_id));
  writer.write_u32(static_cast<std::uint32_t>(result.status));
  writer.write_string(result.error);
  write_report(writer, result.report);
  return writer.buffer();
}

WireScanResult decode_result(std::span<const std::uint8_t> bytes) {
  return decode_guard([&] {
    BinaryReader reader(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    read_header(reader, kResultRecord);
    WireScanResult result;
    result.request_id = static_cast<std::uint64_t>(reader.read_i64());
    const std::uint32_t status = reader.read_u32();
    require(status <= static_cast<std::uint32_t>(ScanStatus::kShed), "status tag out of range");
    result.status = static_cast<ScanStatus>(status);
    result.error = reader.read_string();
    result.report = read_report(reader);
    require(reader.exhausted(), "trailing bytes after result");
    return result;
  });
}

std::vector<std::uint8_t> encode_ping(std::uint64_t nonce) {
  BinaryWriter writer;
  write_header(writer, kPingRecord);
  writer.write_i64(static_cast<std::int64_t>(nonce));
  return writer.buffer();
}

std::vector<std::uint8_t> encode_pong(std::uint64_t nonce) {
  BinaryWriter writer;
  write_header(writer, kPongRecord);
  writer.write_i64(static_cast<std::int64_t>(nonce));
  return writer.buffer();
}

namespace {

std::uint64_t decode_heartbeat(std::span<const std::uint8_t> bytes, std::uint32_t record) {
  return decode_guard([&] {
    BinaryReader reader(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    read_header(reader, record);
    const std::uint64_t nonce = static_cast<std::uint64_t>(reader.read_i64());
    require(reader.exhausted(), "trailing bytes after heartbeat");
    return nonce;
  });
}

}  // namespace

std::uint64_t decode_ping(std::span<const std::uint8_t> bytes) {
  return decode_heartbeat(bytes, kPingRecord);
}

std::uint64_t decode_pong(std::span<const std::uint8_t> bytes) {
  return decode_heartbeat(bytes, kPongRecord);
}

std::uint32_t peek_record(std::span<const std::uint8_t> bytes) {
  return decode_guard([&] {
    BinaryReader reader(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + std::min<std::size_t>(bytes.size(), 12)));
    const std::uint32_t record = read_record_tag(reader);
    require(record >= kRequestRecord && record <= kPongRecord, "unknown record tag");
    return record;
  });
}

void ignore_sigpipe() {
  // Once per process is enough; std::call_once keeps concurrent spawners
  // (the fleet respawn path races submit threads) from re-installing.
  static std::once_flag installed;
  std::call_once(installed, [] { std::signal(SIGPIPE, SIG_IGN); });
}

namespace {

/// fwrite with EINTR retry. Returns false on any other error (the stream's
/// error flag and errno say why).
bool write_fully(std::FILE* out, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < size) {
    const std::size_t n = std::fwrite(bytes + written, 1, size - written, out);
    written += n;
    if (written == size) break;
    if (std::ferror(out) != 0 && errno == EINTR) {
      std::clearerr(out);
      continue;
    }
    if (n == 0) return false;
  }
  return true;
}

enum class ReadStatus { kOk, kEof, kInterrupted, kError };

/// fread exactly `size` bytes with EINTR retry. `got` reports the bytes
/// actually read (to distinguish clean EOF from a truncated read).
/// `interrupt` is checked between attempts: a signal handler setting it
/// unblocks a reader parked on an idle pipe.
ReadStatus read_fully(std::FILE* in, void* data, std::size_t size, std::size_t& got,
                      const std::atomic<bool>* interrupt) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  got = 0;
  while (got < size) {
    if (interrupt != nullptr && interrupt->load(std::memory_order_relaxed)) {
      return ReadStatus::kInterrupted;
    }
    const std::size_t n = std::fread(bytes + got, 1, size - got, in);
    got += n;
    if (got == size) break;
    if (std::ferror(in) != 0 && errno == EINTR) {
      std::clearerr(in);
      continue;
    }
    if (std::feof(in) != 0) return ReadStatus::kEof;
    if (std::ferror(in) != 0) return ReadStatus::kError;
  }
  return ReadStatus::kOk;
}

}  // namespace

void write_frame(std::FILE* out, std::span<const std::uint8_t> payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw WireError("frame too large");
  }
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  errno = 0;
  if (!write_fully(out, &length, sizeof(length)) ||
      (length > 0 && !write_fully(out, payload.data(), payload.size()))) {
    throw WireError(errno == EPIPE ? "peer closed the stream (EPIPE)"
                                   : "frame write failed: " + std::string(std::strerror(errno)));
  }
  errno = 0;
  // fflush can also take the EPIPE: the peer may close between the buffered
  // write above and the flush pushing bytes into the pipe.
  while (std::fflush(out) != 0) {
    if (errno == EINTR) {
      std::clearerr(out);
      continue;
    }
    throw WireError(errno == EPIPE ? "peer closed the stream (EPIPE)"
                                   : "frame flush failed: " + std::string(std::strerror(errno)));
  }
}

bool read_frame(std::FILE* in, std::vector<std::uint8_t>& payload, std::int64_t max_frame_bytes,
                const std::atomic<bool>* interrupt) {
  std::uint32_t length = 0;
  std::size_t got = 0;
  switch (read_fully(in, &length, sizeof(length), got, interrupt)) {
    case ReadStatus::kOk:
      break;
    case ReadStatus::kInterrupted:
      return false;  // drain requested: treated as a clean end-of-stream
    case ReadStatus::kEof:
      if (got == 0) return false;  // clean end-of-stream
      throw WireError("truncated frame header");
    case ReadStatus::kError:
      throw WireError("frame header read failed: " + std::string(std::strerror(errno)));
  }
  if (static_cast<std::int64_t>(length) > max_frame_bytes) {
    throw WireError("frame length " + std::to_string(length) + " exceeds limit");
  }
  payload.resize(length);
  if (length > 0) {
    switch (read_fully(in, payload.data(), payload.size(), got, interrupt)) {
      case ReadStatus::kOk:
        break;
      case ReadStatus::kInterrupted:
        return false;
      case ReadStatus::kEof:
        throw WireError("truncated frame payload");
      case ReadStatus::kError:
        throw WireError("frame payload read failed: " + std::string(std::strerror(errno)));
    }
  }
  return true;
}

}  // namespace usb::wire
