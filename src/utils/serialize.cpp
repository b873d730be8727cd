#include "utils/serialize.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

namespace usb {

void BinaryWriter::append(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void BinaryWriter::write_u32(std::uint32_t value) { append(&value, sizeof(value)); }
void BinaryWriter::write_i64(std::int64_t value) { append(&value, sizeof(value)); }
void BinaryWriter::write_f32(float value) { append(&value, sizeof(value)); }
void BinaryWriter::write_f64(double value) { append(&value, sizeof(value)); }

void BinaryWriter::write_string(const std::string& value) {
  write_i64(static_cast<std::int64_t>(value.size()));
  append(value.data(), value.size());
}

void BinaryWriter::write_floats(std::span<const float> values) {
  write_i64(static_cast<std::int64_t>(values.size()));
  append(values.data(), values.size() * sizeof(float));
}

void BinaryWriter::write_f64s(std::span<const double> values) {
  write_i64(static_cast<std::int64_t>(values.size()));
  append(values.data(), values.size() * sizeof(double));
}

void BinaryWriter::write_i64s(std::span<const std::int64_t> values) {
  write_i64(static_cast<std::int64_t>(values.size()));
  append(values.data(), values.size() * sizeof(std::int64_t));
}

void BinaryWriter::save(const std::string& path) const {
  const std::string temp = path + ".tmp";
  {
    std::FILE* file = std::fopen(temp.c_str(), "wb");
    if (file == nullptr) throw std::runtime_error("cannot open for write: " + temp);
    const std::size_t written = std::fwrite(buffer_.data(), 1, buffer_.size(), file);
    const int close_status = std::fclose(file);
    if (written != buffer_.size() || close_status != 0) {
      std::remove(temp.c_str());
      throw std::runtime_error("short write: " + temp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::remove(temp.c_str());
    throw std::runtime_error("rename failed: " + path + " (" + ec.message() + ")");
  }
}

BinaryReader BinaryReader::from_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throw std::runtime_error("cannot open for read: " + path);
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(buffer.data(), 1, buffer.size(), file);
  std::fclose(file);
  if (read != buffer.size()) throw std::runtime_error("short read: " + path);
  return BinaryReader(std::move(buffer));
}

void BinaryReader::take(void* out, std::size_t size) {
  if (cursor_ + size > buffer_.size()) throw std::runtime_error("BinaryReader: truncated input");
  // An empty vector's data() may be null, and memcpy forbids a null pointer
  // even for a zero-byte copy.
  if (size == 0) return;
  std::memcpy(out, buffer_.data() + cursor_, size);
  cursor_ += size;
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t value = 0;
  take(&value, sizeof(value));
  return value;
}

std::int64_t BinaryReader::read_i64() {
  std::int64_t value = 0;
  take(&value, sizeof(value));
  return value;
}

float BinaryReader::read_f32() {
  float value = 0;
  take(&value, sizeof(value));
  return value;
}

double BinaryReader::read_f64() {
  double value = 0;
  take(&value, sizeof(value));
  return value;
}

namespace {
// Validates a length prefix BEFORE the caller allocates size * unit bytes:
// a corrupt prefix (negative, or larger than the bytes actually present)
// must throw instead of driving a huge allocation or overflowing the
// size * unit multiplication.
void check_length_prefix(std::int64_t size, std::size_t unit, std::size_t remaining) {
  if (size < 0) throw std::runtime_error("BinaryReader: negative length prefix");
  if (static_cast<std::uint64_t>(size) > remaining / unit) {
    throw std::runtime_error("BinaryReader: length prefix " + std::to_string(size) +
                             " exceeds remaining input (" + std::to_string(remaining) + " bytes)");
  }
}
}  // namespace

std::string BinaryReader::read_string() {
  const std::int64_t size = read_i64();
  check_length_prefix(size, 1, remaining());
  std::string value(static_cast<std::size_t>(size), '\0');
  take(value.data(), value.size());
  return value;
}

std::vector<float> BinaryReader::read_floats() {
  const std::int64_t size = read_i64();
  check_length_prefix(size, sizeof(float), remaining());
  std::vector<float> values(static_cast<std::size_t>(size));
  take(values.data(), values.size() * sizeof(float));
  return values;
}

std::vector<double> BinaryReader::read_f64s() {
  const std::int64_t size = read_i64();
  check_length_prefix(size, sizeof(double), remaining());
  std::vector<double> values(static_cast<std::size_t>(size));
  take(values.data(), values.size() * sizeof(double));
  return values;
}

std::vector<std::int64_t> BinaryReader::read_i64s() {
  const std::int64_t size = read_i64();
  check_length_prefix(size, sizeof(std::int64_t), remaining());
  std::vector<std::int64_t> values(static_cast<std::size_t>(size));
  take(values.data(), values.size() * sizeof(std::int64_t));
  return values;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

void ensure_directory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) throw std::runtime_error("cannot create directory: " + path + " (" + ec.message() + ")");
}

}  // namespace usb
