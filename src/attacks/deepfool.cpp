#include "attacks/attack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "attacks/engine.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {

AttackResult DeepFoolAttack::run_impl(AttackTarget& target,
                                      const Tensor& images,
                                      const std::vector<int>& labels) const {
  if (images.dim(0) != labels.size()) {
    throw std::invalid_argument("DeepFoolAttack: image/label count mismatch");
  }
  const std::size_t n = images.dim(0);
  const std::size_t row = images.numel() / n;

  Tensor x = images;
  ActiveSet rows(n);
  EngineStats stats;

  for (std::size_t iter = 0;
       iter < cfg_.max_iterations && !rows.none_active(); ++iter) {
    const CompactPlan plan(rows, cfg_.compact);
    const std::size_t na = plan.active();
    Tensor x_g;
    const Tensor& xcur = plan.pick(x, x_g);

    // One caching forward per iteration; the K per-class backwards below
    // all read the same caches (backward treats them as read-only).
    const Tensor logits = target.logits(xcur, nn::Mode::Eval);
    const std::size_t k = logits.dim(1);
    plan.record_passes(stats, 1);

    // Rows fooled by the current iterate get no step and retire after the
    // update loop.
    std::vector<std::uint8_t> fooled(na, 0);
    bool any_active = false;
    for (std::size_t a = 0; a < na; ++a) {
      const std::size_t g = plan.global(a);
      const std::size_t loc = plan.loc(a);
      if (static_cast<int>(argmax_row(logits, loc)) != labels[g]) {
        fooled[a] = 1;
      } else {
        any_active = true;
      }
    }

    if (any_active) {
      // Per-class input gradients for the (sub-)batch: K backward passes
      // seeded one-hot, all from the single forward above.
      std::vector<Tensor> grads(k);
      for (std::size_t j = 0; j < k; ++j) {
        Tensor seed({plan.sub() ? na : n, k});
        for (std::size_t a = 0; a < na; ++a) {
          if (!fooled[a]) seed[plan.loc(a) * k + j] = 1.0f;
        }
        grads[j] = target.input_grad(xcur, seed);
        plan.record_passes(stats, 1);
      }

      // Standard DeepFool step toward the nearest decision boundary.
      for (std::size_t a = 0; a < na; ++a) {
        if (fooled[a]) continue;
        const std::size_t g = plan.global(a);
        const std::size_t loc = plan.loc(a);
        const auto t0 = static_cast<std::size_t>(labels[g]);
        const float* z = logits.data() + loc * k;
        float best_ratio = std::numeric_limits<float>::infinity();
        std::size_t best_j = k;  // sentinel
        float best_fj = 0.0f;
        double best_wnorm2 = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          if (j == t0) continue;
          const float fj = z[j] - z[t0];
          double wnorm2 = 0.0;
          const float* gj = grads[j].data() + loc * row;
          const float* gt = grads[t0].data() + loc * row;
          for (std::size_t d = 0; d < row; ++d) {
            const double w = static_cast<double>(gj[d]) - gt[d];
            wnorm2 += w * w;
          }
          if (wnorm2 < 1e-20) continue;
          const float ratio =
              std::fabs(fj) / static_cast<float>(std::sqrt(wnorm2));
          if (ratio < best_ratio) {
            best_ratio = ratio;
            best_j = j;
            best_fj = fj;
            best_wnorm2 = wnorm2;
          }
        }
        if (best_j == k) continue;  // degenerate gradients; skip this sample
        const float scale = (1.0f + cfg_.overshoot) * std::fabs(best_fj) /
                            static_cast<float>(best_wnorm2);
        float* px = x.data() + g * row;
        const float* gj = grads[best_j].data() + loc * row;
        const float* gt = grads[t0].data() + loc * row;
        for (std::size_t d = 0; d < row; ++d) {
          px[d] = std::clamp(px[d] + scale * (gj[d] - gt[d]), 0.0f, 1.0f);
        }
      }
    }

    // Collect first: retire() mutates the indices() vector the plan
    // aliases.
    std::vector<std::size_t> to_retire;
    for (std::size_t a = 0; a < na; ++a) {
      if (fooled[a]) to_retire.push_back(plan.global(a));
    }
    for (const std::size_t g : to_retire) {
      rows.retire(g);
      ++stats.rows_retired;
    }
    if (!any_active) break;
  }
  stats.flush("deepfool");

  AttackResult result;
  result.adversarial = x;
  result.success.assign(n, false);
  const Tensor logits = target.logits(x, nn::Mode::Infer);
  for (std::size_t i = 0; i < n; ++i) {
    result.success[i] = static_cast<int>(argmax_row(logits, i)) != labels[i];
  }
  if (target.has_aux()) {
    // Detector-aware success: the example must also evade the detectors.
    const std::vector<float> aux = target.aux_loss(x);
    for (std::size_t i = 0; i < n; ++i) {
      if (aux[i] > 0.0f) result.success[i] = false;
    }
  }
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
