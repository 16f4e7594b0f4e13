#include "magnet/detector_grad.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/softmax.hpp"

namespace adv::magnet {
namespace {

constexpr float kThresholdFloor = 1e-12f;

// d aux_i / d score_i for rows over threshold; 0 (inactive hinge) below.
float hinge_scale(float threshold) {
  return 1.0f / std::max(threshold, kThresholdFloor);
}

float hinged(float score, float threshold) {
  const float over = score - threshold;
  return over > 0.0f ? over * hinge_scale(threshold) : 0.0f;
}

// Evasion term for a ReconstructionDetector: hinged overshoot of
// recon_error(x, AE(x), p) over the threshold.
class ReconErrorTerm final : public attacks::AuxObjective {
 public:
  ReconErrorTerm(std::shared_ptr<nn::Sequential> autoencoder, int p,
                 float threshold, std::string name)
      : ae_(std::move(autoencoder)),
        p_(p),
        threshold_(threshold),
        name_(std::move(name)) {}

  std::string name() const override { return name_; }

  std::vector<float> loss(const Tensor& batch) override {
    std::vector<float> out =
        recon_error(batch, ae_->forward(batch, nn::Mode::Infer), p_);
    for (float& s : out) s = hinged(s, threshold_);
    return out;
  }

  Tensor input_grad(const Tensor& batch,
                    const std::vector<float>& weight) override {
    if (weight.size() != batch.dim(0)) {
      throw std::invalid_argument("ReconErrorTerm: weight/batch mismatch");
    }
    const std::size_t n = batch.dim(0);
    const std::size_t row = batch.numel() / n;
    const Tensor recon = ae_->forward(batch, nn::Mode::Eval);

    // Per-row seed d(sum_i w_i aux_i)/d(diff): with diff = x - AE(x) and
    // score = mean |diff|^p, each element contributes (sign(d)/row) for
    // p = 1 or (2 d / row) for p = 2, scaled by the hinge slope. Rows at or
    // under threshold (or with weight 0) stay zero. The seed is shaped like
    // the AE OUTPUT (elementwise equal to the batch but possibly reshaped,
    // e.g. flattened) — ae_->backward checks shapes against it.
    Tensor seed(recon.shape());
    const float slope = hinge_scale(threshold_);
    const std::vector<float> score = recon_error(batch, recon, p_);
    for (std::size_t i = 0; i < n; ++i) {
      if (weight[i] == 0.0f) continue;
      if (score[i] <= threshold_) continue;  // hinge inactive
      const float* xi = batch.data() + i * row;
      const float* ri = recon.data() + i * row;
      const float s = weight[i] * slope / static_cast<float>(row);
      float* si = seed.data() + i * row;
      if (p_ == 1) {
        for (std::size_t j = 0; j < row; ++j) {
          const float d = xi[j] - ri[j];
          si[j] = d > 0.0f ? s : d < 0.0f ? -s : 0.0f;
        }
      } else {
        for (std::size_t j = 0; j < row; ++j) {
          si[j] = 2.0f * s * (xi[j] - ri[j]);
        }
      }
    }

    // d/dx [x - AE(x)] applied to the seed: identity minus the AE pullback.
    // Returned in the batch's own shape (flat copy; numel matches).
    const Tensor pullback = ae_->backward(seed);
    Tensor grad(batch.shape());
    for (std::size_t j = 0, m = grad.numel(); j < m; ++j) {
      grad[j] = seed[j] - pullback[j];
    }
    return grad;
  }

 private:
  std::shared_ptr<nn::Sequential> ae_;
  int p_;
  float threshold_;
  std::string name_;
};

// Evasion term for a JsdDetector: hinged overshoot of
// JSD(softmax(F(x)/T) || softmax(F(AE(x))/T)) over the threshold.
class JsdEvasionTerm final : public attacks::AuxObjective {
 public:
  JsdEvasionTerm(std::shared_ptr<nn::Sequential> autoencoder,
                 std::shared_ptr<nn::Sequential> classifier,
                 float temperature, float threshold, std::string name)
      : ae_(std::move(autoencoder)),
        classifier_(std::move(classifier)),
        temperature_(temperature),
        threshold_(threshold),
        name_(std::move(name)) {}

  std::string name() const override { return name_; }

  std::vector<float> loss(const Tensor& batch) override {
    const Tensor recon = ae_->forward(batch, nn::Mode::Infer);
    const Tensor logits_x = classifier_->forward(batch, nn::Mode::Infer);
    const Tensor logits_r = classifier_->forward(recon, nn::Mode::Infer);
    std::vector<float> out =
        jsd_rows(nn::softmax_rows(logits_x, temperature_),
                 nn::softmax_rows(logits_r, temperature_));
    for (float& s : out) s = hinged(s, threshold_);
    return out;
  }

  Tensor input_grad(const Tensor& batch,
                    const std::vector<float>& weight) override {
    if (weight.size() != batch.dim(0)) {
      throw std::invalid_argument("JsdEvasionTerm: weight/batch mismatch");
    }
    const std::size_t n = batch.dim(0);

    // Branch values first. Both branches run the one classifier_, which
    // holds a single set of backward caches, so each backward must follow
    // its own branch's caching (Eval) forward with no other Eval forward in
    // between: the recon branch's caches are built here and consumed first;
    // the direct branch re-runs its caching forward after that. The
    // direct-branch logits below are forward-only (Infer leaves every cache
    // untouched).
    const Tensor recon = ae_->forward(batch, nn::Mode::Eval);
    const Tensor logits_x = classifier_->forward(batch, nn::Mode::Infer);
    const Tensor logits_r = classifier_->forward(recon, nn::Mode::Eval);
    const Tensor probs_x = nn::softmax_rows(logits_x, temperature_);
    const Tensor probs_r = nn::softmax_rows(logits_r, temperature_);
    const std::size_t k = probs_x.dim(1);

    // Logit-space seeds for both branches. With u_j = 0.5 ln(p_j / m_j)
    // (the JSD partial wrt p_j, 0-log-0 convention) the tempered-softmax
    // chain rule gives dJSD/dz_j = (1/T) p_j (u_j - sum_t u_t p_t); rows
    // with an inactive hinge (or zero weight) stay zero.
    Tensor seed_x({n, k});
    Tensor seed_r({n, k});
    const float slope = hinge_scale(threshold_);
    const std::vector<float> jsd = jsd_rows(probs_x, probs_r);
    bool any_active = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (weight[i] == 0.0f) continue;
      if (jsd[i] <= threshold_) continue;  // hinge inactive
      any_active = true;
      const float* px = probs_x.data() + i * k;
      const float* pr = probs_r.data() + i * k;
      const float s = weight[i] * slope / temperature_;
      double dot_x = 0.0, dot_r = 0.0;
      std::vector<double> ux(k, 0.0), ur(k, 0.0);
      for (std::size_t j = 0; j < k; ++j) {
        const double m = 0.5 * (static_cast<double>(px[j]) + pr[j]);
        if (px[j] > 0.0f) {
          ux[j] = 0.5 * std::log(static_cast<double>(px[j]) / m);
          dot_x += ux[j] * px[j];
        }
        if (pr[j] > 0.0f) {
          ur[j] = 0.5 * std::log(static_cast<double>(pr[j]) / m);
          dot_r += ur[j] * pr[j];
        }
      }
      for (std::size_t j = 0; j < k; ++j) {
        seed_x[i * k + j] =
            s * px[j] * static_cast<float>(ux[j] - dot_x);
        seed_r[i * k + j] =
            s * pr[j] * static_cast<float>(ur[j] - dot_r);
      }
    }

    Tensor grad(batch.shape());
    if (!any_active) return grad;

    // Recon branch first: x -> AE -> classifier, using the caches from the
    // Eval forwards above.
    {
      const Tensor g = ae_->backward(classifier_->backward(seed_r));
      for (std::size_t j = 0, m = grad.numel(); j < m; ++j) grad[j] += g[j];
    }
    // Direct branch: re-run the classifier on the raw batch with caching
    // (this clobbers the recon-branch caches, which are no longer needed).
    {
      classifier_->forward(batch, nn::Mode::Eval);
      const Tensor g = classifier_->backward(seed_x);
      for (std::size_t j = 0, m = grad.numel(); j < m; ++j) grad[j] += g[j];
    }
    return grad;
  }

 private:
  std::shared_ptr<nn::Sequential> ae_;
  std::shared_ptr<nn::Sequential> classifier_;
  float temperature_;
  float threshold_;
  std::string name_;
};

}  // namespace

std::shared_ptr<attacks::AuxObjective> Detector::evasion_term() const {
  throw std::invalid_argument(
      "evasion_term: no gradient implementation for detector '" +
      name() + "'");
}

std::shared_ptr<attacks::AuxObjective> ReconstructionDetector::evasion_term()
    const {
  return std::make_shared<ReconErrorTerm>(ae_, p_, threshold(),
                                          "aux_" + name());
}

std::shared_ptr<attacks::AuxObjective> JsdDetector::evasion_term() const {
  return std::make_shared<JsdEvasionTerm>(ae_, classifier_, temperature_,
                                          threshold(), "aux_" + name());
}

std::vector<std::shared_ptr<attacks::AuxObjective>> detector_aux_terms(
    const MagNetPipeline& pipeline) {
  std::vector<std::shared_ptr<attacks::AuxObjective>> terms;
  terms.reserve(pipeline.detector_count());
  for (std::size_t i = 0; i < pipeline.detector_count(); ++i) {
    terms.push_back(pipeline.detector(i).evasion_term());
  }
  return terms;
}

}  // namespace adv::magnet
