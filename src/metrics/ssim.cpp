#include "metrics/ssim.h"

#include <stdexcept>

#include "tensor/elementwise.h"
#include "tensor/tensor_ops.h"

namespace usb {
namespace {

/// Arena-referencing view of the five local-statistics maps.
struct SsimMapRefs {
  const Tensor* mu_x = nullptr;
  const Tensor* mu_y = nullptr;
  Tensor* sigma_x2 = nullptr;
  Tensor* sigma_y2 = nullptr;
  Tensor* sigma_xy = nullptr;
};

SsimMapRefs compute_maps(const Tensor& x, const Tensor& y, const Tensor& kernel,
                         TensorArena& arena) {
  SsimMapRefs maps;
  Tensor& mu_x = arena.alloc(Shape{});
  Tensor& mu_y = arena.alloc(Shape{});
  filter2d_valid_into(x, kernel, mu_x);
  filter2d_valid_into(y, kernel, mu_y);
  maps.mu_x = &mu_x;
  maps.mu_y = &mu_y;

  Tensor& x2 = arena.alloc(x.shape());
  Tensor& y2 = arena.alloc(x.shape());
  Tensor& xy = arena.alloc(x.shape());
  ew::mul(x.raw(), x.raw(), x2.raw(), x.numel());
  ew::mul(y.raw(), y.raw(), y2.raw(), y.numel());
  ew::mul(x.raw(), y.raw(), xy.raw(), x.numel());

  Tensor& sigma_x2 = arena.alloc(Shape{});
  Tensor& sigma_y2 = arena.alloc(Shape{});
  Tensor& sigma_xy = arena.alloc(Shape{});
  filter2d_valid_into(x2, kernel, sigma_x2);
  filter2d_valid_into(y2, kernel, sigma_y2);
  filter2d_valid_into(xy, kernel, sigma_xy);
  for (std::int64_t i = 0; i < mu_x.numel(); ++i) {
    sigma_x2[i] -= mu_x[i] * mu_x[i];
    sigma_y2[i] -= mu_y[i] * mu_y[i];
    sigma_xy[i] -= mu_x[i] * mu_y[i];
  }
  maps.sigma_x2 = &sigma_x2;
  maps.sigma_y2 = &sigma_y2;
  maps.sigma_xy = &sigma_xy;
  return maps;
}

void check_inputs(const Tensor& x, const Tensor& y, const SsimConfig& config) {
  if (x.shape() != y.shape() || x.rank() != 4) {
    throw std::invalid_argument("ssim: x and y must be matching NCHW tensors");
  }
  if (x.dim(2) < config.window || x.dim(3) < config.window) {
    throw std::invalid_argument("ssim: image smaller than the SSIM window");
  }
}

}  // namespace

float ssim(const Tensor& x, const Tensor& y, const SsimConfig& config) {
  check_inputs(x, y, config);
  thread_local TensorArena scratch;
  const TensorArena::Scope scope(scratch);
  Tensor& kernel = scratch.alloc(Shape{config.window, config.window});
  gaussian_kernel_into(config.window, config.sigma, kernel);
  const SsimMapRefs maps = compute_maps(x, y, kernel, scratch);

  double total = 0.0;
  for (std::int64_t i = 0; i < maps.mu_x->numel(); ++i) {
    const float n1 = 2.0F * (*maps.mu_x)[i] * (*maps.mu_y)[i] + config.c1;
    const float n2 = 2.0F * (*maps.sigma_xy)[i] + config.c2;
    const float d1 = (*maps.mu_x)[i] * (*maps.mu_x)[i] + (*maps.mu_y)[i] * (*maps.mu_y)[i] +
                     config.c1;
    const float d2 = (*maps.sigma_x2)[i] + (*maps.sigma_y2)[i] + config.c2;
    total += static_cast<double>(n1) * n2 / (static_cast<double>(d1) * d2);
  }
  return static_cast<float>(total / static_cast<double>(maps.mu_x->numel()));
}

SsimGradRef ssim_with_gradient(const Tensor& x, const Tensor& y, TensorArena& arena,
                               const SsimConfig& config) {
  check_inputs(x, y, config);
  Tensor& kernel = arena.alloc(Shape{config.window, config.window});
  gaussian_kernel_into(config.window, config.sigma, kernel);
  const SsimMapRefs maps = compute_maps(x, y, kernel, arena);

  const std::int64_t map_numel = maps.mu_x->numel();
  const float upstream = 1.0F / static_cast<float>(map_numel);  // mean reduction

  // Per-map partial derivatives of the mean SSIM.
  Tensor& g_mu = arena.alloc(maps.mu_x->shape());  // effective gradient routed to G*y
  Tensor& g_y2 = arena.alloc(maps.mu_x->shape());  // gradient routed to G*(y^2)
  Tensor& g_xy = arena.alloc(maps.mu_x->shape());  // gradient routed to G*(x*y)
  double total = 0.0;
  for (std::int64_t i = 0; i < map_numel; ++i) {
    const float mu_x = (*maps.mu_x)[i];
    const float mu_y = (*maps.mu_y)[i];
    const float n1 = 2.0F * mu_x * mu_y + config.c1;
    const float n2 = 2.0F * (*maps.sigma_xy)[i] + config.c2;
    const float d1 = mu_x * mu_x + mu_y * mu_y + config.c1;
    const float d2 = (*maps.sigma_x2)[i] + (*maps.sigma_y2)[i] + config.c2;
    const float d1d2 = d1 * d2;
    total += static_cast<double>(n1) * n2 / d1d2;

    // Partials with the five maps treated as independent variables.
    const float ds_dmuy = (2.0F * mu_x * n2 * d1 - 2.0F * mu_y * n1 * n2) / (d1 * d1d2);
    const float ds_dsxy = 2.0F * n1 / d1d2;
    const float ds_dsy2 = -n1 * n2 / (d1d2 * d2);

    // Chain through sigma_xy = G*(xy) - mu_x mu_y and
    // sigma_y^2 = G*(y^2) - mu_y^2: both contribute back into the mu_y path.
    g_mu[i] = upstream * (ds_dmuy - mu_x * ds_dsxy - 2.0F * mu_y * ds_dsy2);
    g_xy[i] = upstream * ds_dsxy;
    g_y2[i] = upstream * ds_dsy2;
  }

  // Adjoint of the valid Gaussian filter scatters map gradients onto the
  // input grid; then d(y^2)/dy = 2y and d(xy)/dy = x close the chain.
  Tensor& grad = arena.alloc(Shape{});
  filter2d_full_adjoint_into(g_mu, kernel, grad);
  Tensor& back_y2 = arena.alloc(Shape{});
  Tensor& back_xy = arena.alloc(Shape{});
  filter2d_full_adjoint_into(g_y2, kernel, back_y2);
  filter2d_full_adjoint_into(g_xy, kernel, back_xy);
  for (std::int64_t i = 0; i < grad.numel(); ++i) {
    grad[i] += 2.0F * y[i] * back_y2[i] + x[i] * back_xy[i];
  }

  SsimGradRef result;
  result.value = static_cast<float>(total / static_cast<double>(map_numel));
  result.grad_y = &grad;
  return result;
}

}  // namespace usb
