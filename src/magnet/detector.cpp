#include "magnet/detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/softmax.hpp"
#include "nn/trainer.hpp"

namespace adv::magnet {

void Detector::calibrate(const Tensor& clean_validation, float fpr) {
  if (fpr <= 0.0f || fpr >= 1.0f) {
    throw std::invalid_argument("Detector::calibrate: fpr must be in (0,1)");
  }
  std::vector<float> s = scores(clean_validation);
  if (s.empty()) {
    throw std::invalid_argument("Detector::calibrate: empty validation set");
  }
  std::sort(s.begin(), s.end());
  // (1 - fpr) quantile; at least the max when fpr is below resolution.
  const std::size_t n = s.size();
  std::size_t idx = static_cast<std::size_t>(
      std::ceil((1.0 - static_cast<double>(fpr)) * static_cast<double>(n)));
  if (idx >= n) idx = n - 1;
  threshold_ = s[idx];
  calibrated_ = true;
}

float Detector::threshold() const {
  if (!calibrated_) {
    throw std::logic_error("Detector::threshold before calibrate");
  }
  return threshold_;
}

std::vector<bool> Detector::reject(const Tensor& batch) const {
  const float t = threshold();  // throws if not calibrated
  const std::vector<float> s = scores(batch);
  std::vector<bool> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = s[i] > t;
  return out;
}

const Tensor& Forwards::output(nn::Sequential& model, nn::Sequential* inner) {
  const auto key = std::make_pair(&model, inner);
  auto it = outputs_.find(key);
  if (it != outputs_.end()) return it->second;
  const Tensor& in = inner ? output(*inner) : input_;
  nn::Sequential* exec = &model;
  if (clones_) {
    const auto c = clones_->find(&model);
    if (c == clones_->end()) {
      throw std::runtime_error("Forwards: model has no clone");
    }
    exec = c->second.get();
  }
  return outputs_.emplace(key, nn::predict(*exec, in)).first->second;
}

ReconstructionDetector::ReconstructionDetector(
    std::shared_ptr<nn::Sequential> autoencoder, int p)
    : ae_(std::move(autoencoder)), p_(p) {
  if (!ae_) throw std::invalid_argument("ReconstructionDetector: null AE");
  if (p != 1 && p != 2) {
    throw std::invalid_argument("ReconstructionDetector: p must be 1 or 2");
  }
}

std::vector<float> ReconstructionDetector::scores_from(Forwards& f) const {
  return recon_error(f.input(), f.output(*ae_), p_);
}

JsdDetector::JsdDetector(std::shared_ptr<nn::Sequential> autoencoder,
                         std::shared_ptr<nn::Sequential> classifier,
                         float temperature)
    : ae_(std::move(autoencoder)),
      classifier_(std::move(classifier)),
      temperature_(temperature) {
  if (!ae_ || !classifier_) {
    throw std::invalid_argument("JsdDetector: null model");
  }
  if (temperature <= 0.0f) {
    throw std::invalid_argument("JsdDetector: temperature must be > 0");
  }
}

std::vector<float> JsdDetector::scores_from(Forwards& f) const {
  return jsd_rows(nn::softmax_rows(f.output(*classifier_), temperature_),
                  nn::softmax_rows(f.output(*classifier_, ae_.get()),
                                   temperature_));
}

std::vector<float> recon_error(const Tensor& x, const Tensor& recon, int p) {
  const std::size_t n = x.dim(0);
  const std::size_t row = x.numel() / n;
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* xi = x.data() + i * row;
    const float* ri = recon.data() + i * row;
    double acc = 0.0;
    if (p == 1) {
      for (std::size_t j = 0; j < row; ++j) acc += std::fabs(xi[j] - ri[j]);
    } else {
      for (std::size_t j = 0; j < row; ++j) {
        const double d = static_cast<double>(xi[j]) - ri[j];
        acc += d * d;
      }
    }
    out[i] = static_cast<float>(acc / static_cast<double>(row));
  }
  return out;
}

std::vector<float> jsd_rows(const Tensor& probs_a, const Tensor& probs_b) {
  const std::size_t n = probs_a.dim(0);
  const std::size_t k = probs_a.dim(1);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = jensen_shannon_divergence(
        std::span<const float>(probs_a.data() + i * k, k),
        std::span<const float>(probs_b.data() + i * k, k));
  }
  return out;
}

float jensen_shannon_divergence(std::span<const float> p,
                                std::span<const float> q) {
  if (p.size() != q.size()) {
    throw std::invalid_argument("jsd: length mismatch");
  }
  // KL contributions with the 0 log 0 = 0 convention; m_i > 0 whenever
  // p_i > 0 or q_i > 0, so the logs are well-defined.
  double acc = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i], qi = q[i];
    const double mi = 0.5 * (pi + qi);
    if (pi > 0.0) acc += 0.5 * pi * std::log(pi / mi);
    if (qi > 0.0) acc += 0.5 * qi * std::log(qi / mi);
  }
  return static_cast<float>(std::max(acc, 0.0));
}

}  // namespace adv::magnet
