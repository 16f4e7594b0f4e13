#include "attacks/attack.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "attacks/engine.hpp"
#include "attacks/fused.hpp"
#include "nn/loss.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {

AttackResult FgsmAttack::run_impl(AttackTarget& target, const Tensor& images,
                                  const std::vector<int>& labels) const {
  if (images.dim(0) != labels.size()) {
    throw std::invalid_argument("FgsmAttack: image/label count mismatch");
  }
  if (cfg_.iterations == 0) {
    throw std::invalid_argument("FgsmAttack: iterations must be > 0");
  }
  const std::size_t n = images.dim(0);
  const std::size_t row = images.numel() / n;
  const float step = cfg_.epsilon / static_cast<float>(cfg_.iterations);

  Tensor x = images;
  nn::SoftmaxCrossEntropy loss;
  ActiveSet rows(n);
  EngineStats stats;
  std::vector<std::size_t> to_retire;
  std::vector<float> aux_w;
  for (std::size_t k = 0; k < cfg_.iterations && !rows.none_active(); ++k) {
    const CompactPlan plan(rows, cfg_.compact);
    const std::size_t na = plan.active();
    Tensor x_g;
    std::vector<int> lab_g;
    const Tensor& xcur = plan.pick(x, x_g);
    const std::vector<int>& lab = plan.pick(labels, lab_g);

    const Tensor logits = target.logits(xcur, nn::Mode::Eval);
    loss.forward(logits, lab);
    Tensor grad = target.input_grad(xcur, loss.backward());
    plan.record_passes(stats, 2);  // forward + backward

    if (target.has_aux()) {
      // Descend the detector penalty alongside the CE ascent. The CE seed
      // is (softmax - onehot) / batch, so weighting the aux term by
      // 1/batch keeps the two at the same per-row scale in the compacted
      // and dense paths alike.
      const float w = 1.0f / static_cast<float>(xcur.dim(0));
      aux_w.assign(xcur.dim(0), w);
      const Tensor ag = target.aux_input_grad(xcur, aux_w);
      for (std::size_t i = 0, m = grad.numel(); i < m; ++i) grad[i] -= ag[i];
    }

    // Sign step + eps-ball/[0,1] projection per active row. The CE seed is
    // (softmax - onehot) / batch, so the sub-batch gradient differs from
    // the full-batch one only by a positive per-row scale — the sign (and
    // hence the update) is identical either way. A row left bitwise
    // unchanged is at a fixed point of this deterministic map and retires.
    to_retire.clear();
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t g = plan.global(a);
      const std::size_t loc = plan.loc(a);
      if (!fused_sign_step(x.data() + g * row, grad.data() + loc * row,
                           images.data() + g * row, row, step,
                           cfg_.epsilon)) {
        to_retire.push_back(g);
      }
    }
    for (const std::size_t g : to_retire) {
      rows.retire(g);
      ++stats.rows_retired;
    }
  }
  stats.flush(cfg_.iterations > 1 ? "ifgsm" : "fgsm");

  AttackResult result;
  result.adversarial = x;
  result.success.assign(n, false);
  const HingeEval eval =
      eval_untargeted_hinge(target, x, labels, 0.0f, nn::Mode::Infer);
  for (std::size_t i = 0; i < n; ++i) {
    result.success[i] = eval.margin[i] > 0.0f;  // misclassified
  }
  if (target.has_aux()) {
    // Detector-aware success: the example must also evade the detectors.
    const std::vector<float> aux = target.aux_loss(x);
    for (std::size_t i = 0; i < n; ++i) {
      if (aux[i] > 0.0f) result.success[i] = false;
    }
  }
  // Keep natural images for failed rows so distortion stats stay honest.
  for (std::size_t i = 0; i < n; ++i) {
    if (!result.success[i]) {
      std::copy_n(images.data() + i * row, row,
                  result.adversarial.data() + i * row);
    }
  }
  fill_distortions(result, images);
  return result;
}

}  // namespace adv::attacks
