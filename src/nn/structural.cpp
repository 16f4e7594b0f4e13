#include "nn/structural.hpp"

#include <stdexcept>

#include "tensor/tensor_ops.hpp"

namespace adv::nn {

Tensor Flatten::forward(const Tensor& input, Mode mode) {
  if (input.rank() < 2) {
    throw std::invalid_argument("Flatten: expected rank >= 2, got " +
                                input.shape_string());
  }
  if (caches_for_backward(mode)) input_shape_ = input.shape();
  const std::size_t n = input.dim(0);
  return input.reshaped({n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (grad_output.numel() != input_shape_.numel()) {
    throw std::invalid_argument("Flatten::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  return grad_output.reshaped(input_shape_);
}

Dropout::Dropout(float rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input, Mode mode) {
  if (caches_for_backward(mode)) last_training_ = is_training(mode);
  if (!is_training(mode) || rate_ == 0.0f) return input;
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  mask_ = Tensor(input.shape());
  Tensor out = input;
  float* m = mask_.data();
  float* o = out.data();
  for (std::size_t i = 0, n = out.numel(); i < n; ++i) {
    const bool keep_unit = rng_.bernoulli(keep);
    m[i] = keep_unit ? scale : 0.0f;
    o[i] *= m[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (!last_training_ || rate_ == 0.0f) return grad_output;
  Tensor grad = grad_output;
  mul_inplace(grad, mask_);
  return grad;
}

}  // namespace adv::nn
