#include "nn/init.h"

#include <cmath>

namespace usb {

void kaiming_normal(Tensor& weight, std::int64_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (std::int64_t i = 0; i < weight.numel(); ++i) {
    weight[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

}  // namespace usb
