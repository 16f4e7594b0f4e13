#include "nn/sequential.hpp"

#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "tensor/serialize.hpp"

namespace adv::nn {

void Sequential::sync_obs_timers() {
  if (obs_timers_.size() == layers_.size()) return;
  auto& reg = obs::MetricsRegistry::global();
  obs_timers_.clear();
  obs_timers_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::string stem =
        "layer/" + std::to_string(i) + ":" + layers_[i]->name();
    obs_timers_.push_back(
        {&reg.timer(stem + "/forward"), &reg.timer(stem + "/backward")});
  }
}

void Sequential::sync_workspace() {
  if (!ws_) ws_ = std::make_unique<Workspace>();  // moved-from safety
  if (ws_synced_layers_ == layers_.size()) return;
  for (auto& layer : layers_) layer->set_workspace(ws_.get());
  ws_synced_layers_ = layers_.size();
}

void Sequential::sync_fusion() {
  if (fuse_synced_layers_ == layers_.size()) return;
  fuse_.assign(layers_.size(), FuseStep{});
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    auto* conv = dynamic_cast<Conv2d*>(layers_[i].get());
    if (!conv) continue;
    if (auto* relu = dynamic_cast<ReLU*>(layers_[i + 1].get())) {
      fuse_[i] = {conv::Epilogue::ReLU, conv, relu, nullptr};
    } else if (auto* sig = dynamic_cast<Sigmoid*>(layers_[i + 1].get())) {
      fuse_[i] = {conv::Epilogue::Sigmoid, conv, nullptr, sig};
    }
  }
  fuse_synced_layers_ = layers_.size();
}

Tensor Sequential::forward(const Tensor& input, Mode mode) {
  sync_workspace();
  sync_fusion();
  if (layers_.empty()) return input;
  const bool instr = obs::enabled();
  if (instr) {
    sync_obs_timers();
    static obs::Counter& calls =
        obs::MetricsRegistry::global().counter("model/forward_calls");
    calls.add(1);
  }
  // Fused Conv->activation steps consume two layers per iteration: the
  // conv applies the activation in its store epilogue and the activation
  // layer adopts the result as its backward cache (its own forward never
  // runs, so its per-layer timer stays silent; the conv's timer covers
  // the fused op).
  Tensor x;
  bool have_x = false;
  for (std::size_t i = 0; i < layers_.size();) {
    const Tensor& in = have_x ? x : input;
    const FuseStep& f = fuse_[i];
    const bool fused = fusion_enabled_ && f.epi != conv::Epilogue::None;
    Tensor next;
    {
      obs::ScopedTimer t(instr ? obs_timers_[i].forward : nullptr);
      next = fused ? f.conv->forward_fused(in, mode, f.epi)
                   : layers_[i]->forward(in, mode);
    }
    if (fused) {
      if (f.relu) {
        f.relu->adopt_fused(next, mode);
      } else {
        f.sigmoid->adopt_fused(next, mode);
      }
    }
    if (have_x) ws_->release(std::move(x));  // consumed by this step
    x = std::move(next);
    have_x = true;
    i += fused ? 2 : 1;
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  sync_workspace();
  if (layers_.empty()) return grad_output;
  const bool instr = obs::enabled();
  if (instr) {
    sync_obs_timers();
    // One backward call == one gradient query: the attack metrics derive
    // their gradient-query counts from this counter's deltas.
    static obs::Counter& calls =
        obs::MetricsRegistry::global().counter("model/backward_calls");
    calls.add(1);
  }
  Tensor g;
  bool have_g = false;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Tensor next;
    {
      obs::ScopedTimer t(instr ? obs_timers_[i].backward : nullptr);
      next = layers_[i]->backward(have_g ? g : grad_output);
    }
    if (have_g) ws_->release(std::move(g));  // consumed by this step
    g = std::move(next);
    have_g = true;
  }
  return g;
}

std::vector<Tensor*> Sequential::parameters() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<const Tensor*> Sequential::parameters() const {
  std::vector<const Tensor*> out;
  for (const auto& layer : layers_) {
    for (const Tensor* p : std::as_const(*layer).parameters()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<Tensor*> Sequential::gradients() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* g : layer->gradients()) out.push_back(g);
  }
  return out;
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::size_t Sequential::parameter_count() const {
  std::size_t n = 0;
  for (const Tensor* p : parameters()) n += p->numel();
  return n;
}

void Sequential::save(const std::filesystem::path& path) const {
  std::vector<Tensor> params;
  for (const Tensor* p : parameters()) params.push_back(*p);
  save_tensors(path, params);
}

void Sequential::load(const std::filesystem::path& path) {
  const std::vector<Tensor> stored = load_tensors(path);
  std::vector<Tensor*> params = parameters();
  if (stored.size() != params.size()) {
    throw std::runtime_error(
        "Sequential::load: " + path.string() + " holds " +
        std::to_string(stored.size()) + " tensors, architecture expects " +
        std::to_string(params.size()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!stored[i].same_shape(*params[i])) {
      throw std::runtime_error("Sequential::load: tensor " +
                               std::to_string(i) + " shape " +
                               stored[i].shape_string() + " != expected " +
                               params[i]->shape_string());
    }
    *params[i] = stored[i];
  }
}

}  // namespace adv::nn
