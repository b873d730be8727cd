// Environment-variable backed experiment knobs.
//
// The paper evaluates 240 trained models; the default repo configuration
// trains a scaled-down population so the full bench suite completes on a
// laptop-class CPU. Every scale knob is overridable through the environment
// so the paper-scale run is one `USB_MODELS_PER_CASE=50 ...` away.
#pragma once

#include <cstdint>
#include <string>

namespace usb {

/// Reads an integer env var with a fallback.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// Reads a string env var with a fallback.
[[nodiscard]] std::string env_string(const char* name, const std::string& fallback);

/// Reads a boolean env var ("1"/"true"/"yes" => true) with a fallback.
[[nodiscard]] bool env_bool(const char* name, bool fallback);

/// Global experiment scale configuration, resolved once from the environment.
struct ExperimentScale {
  /// Models trained per table row (paper: 50 for Tables 1/5, 15 elsewhere).
  std::int64_t models_per_case = 2;
  /// Training epochs per model.
  std::int64_t epochs = 4;
  /// Synthetic training-set size per dataset.
  std::int64_t train_size = 1600;
  /// Synthetic held-out test-set size.
  std::int64_t test_size = 400;
  /// If true, shrinks optimization iteration counts further for smoke runs.
  bool fast = false;
  /// Directory for cached trained checkpoints ("" disables caching).
  std::string model_cache_dir = ".usb_model_cache";

  /// Resolves from USB_MODELS_PER_CASE, USB_EPOCHS, USB_TRAIN_SIZE,
  /// USB_TEST_SIZE, USB_FAST, USB_MODEL_CACHE.
  [[nodiscard]] static ExperimentScale from_env();
};

}  // namespace usb
