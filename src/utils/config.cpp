#include "utils/config.h"

#include <cstdlib>

namespace usb {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<std::int64_t>(parsed);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return value;
}

bool env_bool(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::string text(value);
  return text == "1" || text == "true" || text == "yes" || text == "on";
}

ExperimentScale ExperimentScale::from_env() {
  ExperimentScale scale;
  scale.models_per_case = env_int("USB_MODELS_PER_CASE", scale.models_per_case);
  scale.epochs = env_int("USB_EPOCHS", scale.epochs);
  scale.train_size = env_int("USB_TRAIN_SIZE", scale.train_size);
  scale.test_size = env_int("USB_TEST_SIZE", scale.test_size);
  scale.fast = env_bool("USB_FAST", scale.fast);
  scale.model_cache_dir = env_string("USB_MODEL_CACHE", scale.model_cache_dir);
  if (scale.fast) {
    scale.models_per_case = std::min<std::int64_t>(scale.models_per_case, 2);
    scale.epochs = std::min<std::int64_t>(scale.epochs, 2);
    scale.train_size = std::min<std::int64_t>(scale.train_size, 800);
    scale.test_size = std::min<std::int64_t>(scale.test_size, 200);
  }
  return scale;
}

}  // namespace usb
