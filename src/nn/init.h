// Weight initialization.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"
#include "utils/rng.h"

namespace usb {

/// He/Kaiming normal init: N(0, sqrt(2/fan_in)); the standard for
/// ReLU-family networks.
void kaiming_normal(Tensor& weight, std::int64_t fan_in, Rng& rng);

}  // namespace usb
