// MagNet adversary detectors.
//
// A Detector maps a batch of images to anomaly scores (higher = more
// likely adversarial) and rejects inputs whose score exceeds a threshold
// calibrated on clean validation data at a target false-positive rate —
// exactly MagNet's procedure.
//
// Two families, as in the paper:
//   * ReconstructionDetector — per-pixel Lp reconstruction error of an
//     auto-encoder (p = 1 or 2; MNIST's default MagNet uses one of each).
//   * JsdDetector — Jensen-Shannon divergence between the classifier's
//     temperature-softened output on x and on AE(x) (CIFAR default and the
//     "D+JSD" robust MNIST variant; temperatures 10 and 40 in the paper).
//
// Detectors are pure functions of model outputs read from a Forwards, so
// a bank sharing one auto-encoder runs it once. recon_error and jsd_rows
// are the only copies of the score formulas (magnet/detector_grad.hpp
// reuses them).
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace adv::attacks {
class AuxObjective;
}

namespace adv::magnet {

/// Model outputs on one input, each computed at most once: model(x) and
/// model(inner(x)). With a clone map every model runs as its clone (the
/// int8 models of a MagNetPipeline::quantized pipeline). One per call;
/// not thread-safe.
class Forwards {
 public:
  /// Float model -> the clone that runs in its place.
  using Clones =
      std::map<const nn::Sequential*, std::shared_ptr<nn::Sequential>>;

  explicit Forwards(const Tensor& input, const Clones* clones = nullptr)
      : input_(input), clones_(clones) {}
  Forwards(Tensor&&, const Clones* = nullptr) = delete;  // keeps a reference

  const Tensor& input() const { return input_; }

  /// model(x), or model(inner(x)) when `inner` is set.
  const Tensor& output(nn::Sequential& model, nn::Sequential* inner = nullptr);

 private:
  const Tensor& input_;
  const Clones* clones_;
  std::map<std::pair<const nn::Sequential*, const nn::Sequential*>, Tensor>
      outputs_;
};

class Detector {
 public:
  virtual ~Detector() = default;

  /// Anomaly score per row of f.input(); higher means more anomalous.
  /// Const: scoring never changes the calibration.
  virtual std::vector<float> scores_from(Forwards& f) const = 0;

  /// scores_from over a batch of its own.
  std::vector<float> scores(const Tensor& batch) const {
    Forwards f(batch);
    return scores_from(f);
  }

  virtual std::string name() const = 0;

  /// Every model scores_from runs (MagNetPipeline::quantized clones them).
  virtual std::vector<std::shared_ptr<nn::Sequential>> models() const {
    return {};
  }

  /// Differentiable twin at the calibrated threshold (detector_grad.hpp).
  /// Throws std::logic_error when uncalibrated, std::invalid_argument
  /// when the type has no gradient implementation.
  virtual std::shared_ptr<attacks::AuxObjective> evasion_term() const;

  /// Sets the rejection threshold to the (1 - fpr) quantile of scores on
  /// clean validation images. Throws std::invalid_argument on empty data
  /// or fpr outside (0, 1).
  void calibrate(const Tensor& clean_validation, float fpr);

  float threshold() const;
  void set_threshold(float t) {
    threshold_ = t;
    calibrated_ = true;
  }

  /// reject[i] == true iff scores(batch)[i] > threshold. Requires a prior
  /// calibrate()/set_threshold().
  std::vector<bool> reject(const Tensor& batch) const;

 private:
  float threshold_ = 0.0f;
  bool calibrated_ = false;
};

class ReconstructionDetector final : public Detector {
 public:
  /// `p` must be 1 or 2. Score is recon_error(x, AE(x), p).
  ReconstructionDetector(std::shared_ptr<nn::Sequential> autoencoder, int p);

  std::vector<float> scores_from(Forwards& f) const override;
  std::string name() const override {
    return "recon_l" + std::to_string(p_);
  }
  std::vector<std::shared_ptr<nn::Sequential>> models() const override {
    return {ae_};
  }
  std::shared_ptr<attacks::AuxObjective> evasion_term() const override;

 private:
  std::shared_ptr<nn::Sequential> ae_;
  int p_;
};

class JsdDetector final : public Detector {
 public:
  /// Score is JSD(softmax(F(x)/T) || softmax(F(AE(x))/T)).
  JsdDetector(std::shared_ptr<nn::Sequential> autoencoder,
              std::shared_ptr<nn::Sequential> classifier, float temperature);

  std::vector<float> scores_from(Forwards& f) const override;
  std::string name() const override {
    return "jsd_T" + std::to_string(static_cast<int>(temperature_));
  }
  std::vector<std::shared_ptr<nn::Sequential>> models() const override {
    return {ae_, classifier_};
  }
  std::shared_ptr<attacks::AuxObjective> evasion_term() const override;

 private:
  std::shared_ptr<nn::Sequential> ae_;
  std::shared_ptr<nn::Sequential> classifier_;
  float temperature_;
};

/// Mean |x - recon|^p per batch row (p = 1 or 2; per-pixel, so thresholds
/// compare across image sizes). `recon` may be reshaped (e.g. flattened).
std::vector<float> recon_error(const Tensor& x, const Tensor& recon, int p);

/// jensen_shannon_divergence of each row pair of two [N, K] tensors.
std::vector<float> jsd_rows(const Tensor& probs_a, const Tensor& probs_b);

/// Jensen-Shannon divergence between two discrete distributions (rows of
/// equal length). Exposed for tests; returns a value in [0, ln 2].
float jensen_shannon_divergence(std::span<const float> p,
                                std::span<const float> q);

}  // namespace adv::magnet
