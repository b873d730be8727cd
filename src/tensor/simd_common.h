// Shared SIMD scaffolding for the runtime-dispatched kernel TUs
// (tensor/gemm.cpp, tensor/elementwise.cpp and the Gaussian filters in
// tensor/tensor_ops.cpp). INTERNAL header — include only from kernel .cpp
// files; it defines unprefixed-looking macros.
//
// The attributes are correctness-critical and must stay identical across
// every kernel TU:
//  - aligned(4) (aligned(8) for doubles) makes loads/stores through the
//    vector types unaligned-safe (packed panels and arbitrary tensor
//    offsets are only element-aligned);
//  - may_alias exempts them from strict aliasing against their scalar
//    element types;
//  - same-size C-style casts between v8sf and v8si reinterpret bits, which
//    is how the branchless selects implement scalar comparison semantics
//    exactly (comparisons on v8sf yield v8si lane masks of all-ones/zero).
#pragma once

#include <cstdint>

#define USB_RESTRICT __restrict__

namespace usb::simd {

// 8-float lane vector (GCC/Clang vector extension) and its same-size
// signed-integer twin.
using v8sf = float __attribute__((vector_size(32), aligned(4), may_alias));
using v8si = std::int32_t __attribute__((vector_size(32), aligned(4), may_alias));
// 4-double lane vector: each lane carries one output's scalar double
// accumulator (the Gaussian filters' column blocks).
using v4df = double __attribute__((vector_size(32), aligned(8), may_alias));

/// True when the running CPU can execute the target("avx2") kernel
/// variants compiled into this binary.
inline bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace usb::simd

#define USB_SIMD_LOAD(ptr) (*reinterpret_cast<const ::usb::simd::v8sf*>(ptr))
#define USB_SIMD_STORE(ptr, value) (*reinterpret_cast<::usb::simd::v8sf*>(ptr) = (value))
// select(mask, a, b): per lane, mask all-ones -> a, zero -> b.
#define USB_SIMD_SELECT(mask, a, b)                        \
  ((::usb::simd::v8sf)((((::usb::simd::v8si)(a)) & (mask)) | \
                       (((::usb::simd::v8si)(b)) & ~(mask))))
#define USB_SIMD_BCAST(s) \
  ::usb::simd::v8sf { (s), (s), (s), (s), (s), (s), (s), (s) }
#define USB_SIMD_LOAD_PD(ptr) (*reinterpret_cast<const ::usb::simd::v4df*>(ptr))
#define USB_SIMD_STORE_PD(ptr, value) (*reinterpret_cast<::usb::simd::v4df*>(ptr) = (value))
#define USB_SIMD_BCAST_PD(s) \
  ::usb::simd::v4df { (s), (s), (s), (s) }
