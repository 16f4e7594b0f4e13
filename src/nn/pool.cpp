#include "nn/pool.hpp"

#include <limits>
#include <stdexcept>

namespace adv::nn {
namespace {

void require_poolable(const Tensor& input, std::size_t window,
                      const char* who) {
  if (input.rank() != 4) {
    throw std::invalid_argument(std::string(who) + ": expected NCHW, got " +
                                input.shape_string());
  }
  if (window == 0 || input.dim(2) % window != 0 ||
      input.dim(3) % window != 0) {
    throw std::invalid_argument(std::string(who) + ": window " +
                                std::to_string(window) +
                                " must divide spatial dims of " +
                                input.shape_string());
  }
}

}  // namespace

Tensor AvgPool2d::forward(const Tensor& input, Mode mode) {
  require_poolable(input, window_, "AvgPool2d");
  if (caches_for_backward(mode)) input_shape_ = input.shape();
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  Tensor out = make_buffer({n, c, oh, ow});
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = input.data() + nc * h * w;
    float* dst = out.data() + nc * oh * ow;
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        float acc = 0.0f;
        for (std::size_t di = 0; di < window_; ++di) {
          const float* row = src + (i * window_ + di) * w + j * window_;
          for (std::size_t dj = 0; dj < window_; ++dj) acc += row[dj];
        }
        dst[i * ow + j] = acc * inv;
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  const std::size_t n = input_shape_[0], c = input_shape_[1];
  const std::size_t h = input_shape_[2], w = input_shape_[3];
  const std::size_t oh = h / window_, ow = w / window_;
  if (grad_output.shape() != Shape{n, c, oh, ow}) {
    throw std::invalid_argument("AvgPool2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  Tensor grad = make_buffer(input_shape_, /*zeroed=*/true);
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = grad_output.data() + nc * oh * ow;
    float* dst = grad.data() + nc * h * w;
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        const float g = src[i * ow + j] * inv;
        for (std::size_t di = 0; di < window_; ++di) {
          float* row = dst + (i * window_ + di) * w + j * window_;
          for (std::size_t dj = 0; dj < window_; ++dj) row[dj] += g;
        }
      }
    }
  }
  return grad;
}

Tensor MaxPool2d::forward(const Tensor& input, Mode mode) {
  require_poolable(input, window_, "MaxPool2d");
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h / window_, ow = w / window_;
  Tensor out = make_buffer({n, c, oh, ow});
  const bool cache = caches_for_backward(mode);
  if (cache) {
    input_shape_ = input.shape();
    argmax_.assign(out.numel(), 0);
  }
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = input.data() + nc * h * w;
    float* dst = out.data() + nc * oh * ow;
    std::size_t* amax = cache ? argmax_.data() + nc * oh * ow : nullptr;
    for (std::size_t i = 0; i < oh; ++i) {
      for (std::size_t j = 0; j < ow; ++j) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t di = 0; di < window_; ++di) {
          for (std::size_t dj = 0; dj < window_; ++dj) {
            const std::size_t idx =
                (i * window_ + di) * w + j * window_ + dj;
            if (src[idx] > best) {
              best = src[idx];
              best_idx = idx;
            }
          }
        }
        dst[i * ow + j] = best;
        if (cache) amax[i * ow + j] = nc * h * w + best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (grad_output.numel() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  Tensor grad = make_buffer(input_shape_, /*zeroed=*/true);
  const float* g = grad_output.data();
  float* dst = grad.data();
  for (std::size_t i = 0, m = argmax_.size(); i < m; ++i) {
    dst[argmax_[i]] += g[i];
  }
  return grad;
}

Tensor Upsample2d::forward(const Tensor& input, Mode mode) {
  if (input.rank() != 4) {
    throw std::invalid_argument("Upsample2d: expected NCHW, got " +
                                input.shape_string());
  }
  if (caches_for_backward(mode)) input_shape_ = input.shape();
  const std::size_t n = input.dim(0), c = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  const std::size_t oh = h * factor_, ow = w * factor_;
  Tensor out = make_buffer({n, c, oh, ow});
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = input.data() + nc * h * w;
    float* dst = out.data() + nc * oh * ow;
    for (std::size_t i = 0; i < oh; ++i) {
      const float* srow = src + (i / factor_) * w;
      float* drow = dst + i * ow;
      for (std::size_t j = 0; j < ow; ++j) drow[j] = srow[j / factor_];
    }
  }
  return out;
}

Tensor Upsample2d::backward(const Tensor& grad_output) {
  const std::size_t n = input_shape_[0], c = input_shape_[1];
  const std::size_t h = input_shape_[2], w = input_shape_[3];
  const std::size_t oh = h * factor_, ow = w * factor_;
  if (grad_output.shape() != Shape{n, c, oh, ow}) {
    throw std::invalid_argument("Upsample2d::backward: bad grad shape " +
                                grad_output.shape_string());
  }
  Tensor grad = make_buffer(input_shape_, /*zeroed=*/true);
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* src = grad_output.data() + nc * oh * ow;
    float* dst = grad.data() + nc * h * w;
    for (std::size_t i = 0; i < oh; ++i) {
      const float* srow = src + i * ow;
      float* drow = dst + (i / factor_) * w;
      for (std::size_t j = 0; j < ow; ++j) drow[j / factor_] += srow[j];
    }
  }
  return grad;
}

}  // namespace adv::nn
