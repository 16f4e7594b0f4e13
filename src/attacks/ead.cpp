#include "attacks/ead.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "attacks/attack.hpp"
#include "attacks/engine.hpp"
#include "attacks/fused.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv::attacks {

const char* to_string(DecisionRule r) {
  switch (r) {
    case DecisionRule::EN: return "EN";
    case DecisionRule::L1: return "L1";
    case DecisionRule::L2: return "L2";
  }
  return "?";
}

void shrink_project(const Tensor& z, const Tensor& x0, float beta,
                    Tensor& out) {
  if (!z.same_shape(x0)) {
    throw std::invalid_argument("shrink_project: shape mismatch");
  }
  if (!out.same_shape(z)) out = Tensor(z.shape());
  const float* pz = z.data();
  const float* p0 = x0.data();
  float* po = out.data();
  for (std::size_t i = 0, n = z.numel(); i < n; ++i) {
    const float diff = pz[i] - p0[i];
    if (diff > beta) {
      po[i] = std::min(pz[i] - beta, 1.0f);
    } else if (diff < -beta) {
      po[i] = std::max(pz[i] + beta, 0.0f);
    } else {
      po[i] = p0[i];
    }
  }
}

namespace {

/// Distortion of one row under a decision rule.
float rule_distance(DecisionRule rule, float beta, const float* adv,
                    const float* nat, std::size_t row) {
  double acc1 = 0.0, acc2 = 0.0;
  for (std::size_t j = 0; j < row; ++j) {
    const double d = static_cast<double>(adv[j]) - nat[j];
    acc1 += std::fabs(d);
    acc2 += d * d;
  }
  switch (rule) {
    case DecisionRule::EN: return static_cast<float>(beta * acc1 + acc2);
    case DecisionRule::L1: return static_cast<float>(acc1);
    case DecisionRule::L2: return static_cast<float>(acc2);
  }
  return 0.0f;
}

/// Elastic-net distance ||a-n||_2^2 + beta*||a-n||_1 of one row (the
/// distortion part of the early-abort objective).
float elastic_distance(float beta, const float* adv, const float* nat,
                       std::size_t row) {
  double acc1 = 0.0, acc2 = 0.0;
  for (std::size_t j = 0; j < row; ++j) {
    const double d = static_cast<double>(adv[j]) - nat[j];
    acc1 += std::fabs(d);
    acc2 += d * d;
  }
  return static_cast<float>(acc2 + beta * acc1);
}

/// The EAD optimization behind EadAttack and CwL2Attack: one run that
/// selects the best successful iterate under every rule in `rules`
/// (cfg.rule is ignored). Result i corresponds to rules[i].
std::vector<AttackResult> optimize(AttackTarget& target, const Tensor& images,
                                   const std::vector<int>& labels,
                                   const EadConfig& cfg,
                                   std::span<const DecisionRule> rules) {
  if (images.rank() == 0 || images.dim(0) != labels.size()) {
    throw std::invalid_argument("EadAttack: image/label count mismatch");
  }
  if (cfg.iterations == 0 || cfg.binary_search_steps == 0) {
    throw std::invalid_argument(
        "EadAttack: iterations and search steps must be > 0");
  }
  if (rules.empty()) {
    throw std::invalid_argument("EadAttack: no decision rules");
  }
  const std::size_t n = images.dim(0);
  const std::size_t row = images.numel() / n;
  const std::size_t nrules = rules.size();
  const bool aux = target.has_aux();

  std::vector<AttackResult> results(nrules);
  std::vector<std::vector<float>> best_dist(nrules);
  for (std::size_t r = 0; r < nrules; ++r) {
    results[r].adversarial = images;  // failed rows stay natural
    results[r].success.assign(n, false);
    best_dist[r].assign(n, std::numeric_limits<float>::infinity());
  }

  std::vector<float> c(n, cfg.initial_c);
  std::vector<float> lower(n, 0.0f);
  std::vector<float> upper(n, 1e10f);
  EngineStats stats;

  for (std::size_t bs = 0; bs < cfg.binary_search_steps; ++bs) {
    Tensor x = images;  // current iterate x^(k)
    Tensor y = images;  // FISTA auxiliary point (== x^(k) for plain ISTA)
    std::vector<bool> succeeded_this_step(n, false);
    ActiveSet rows(n);
    PlateauDetector plateau(n, cfg.abort_early_window,
                            cfg.abort_early_rel_tol);
    std::vector<std::size_t> to_retire;
    // Dense-mode weight vector: retired rows get weight 0 so their logit
    // seed is zero (their gradient rows are then exactly zero, and the
    // per-row independence of every layer keeps the active rows' gradients
    // bitwise equal to the compacted sub-batch pass).
    std::vector<float> w_dense;

    for (std::size_t k = 0;
         k < cfg.iterations && !rows.none_active(); ++k) {
      // Square-root polynomial decay of the step size (reference EAD).
      const float lr = cfg.learning_rate *
                       std::sqrt(1.0f - static_cast<float>(k) /
                                            static_cast<float>(cfg.iterations));

      // Compacted sub-batch: gather the active rows densely so the model
      // passes below are [na, ...] instead of [n, ...].
      const CompactPlan plan(rows, cfg.compact);
      const std::size_t na = plan.active();
      Tensor y_g, x0_g;
      std::vector<int> lab_g;
      std::vector<float> w_g;
      if (!plan.sub()) {
        w_dense = c;
        for (std::size_t i = 0; i < n; ++i) {
          if (!rows.active(i)) w_dense[i] = 0.0f;
        }
      }
      const Tensor& ycur = plan.pick(y, y_g);
      const Tensor& x0 = plan.pick(images, x0_g);
      const std::vector<int>& lab = plan.pick(labels, lab_g);
      const std::vector<float>& w = plan.sub() ? plan.pick(c, w_g) : w_dense;

      // Gradient of g(y) = c*f(y) + ||y - x0||_2^2 at the (FISTA) point y
      // — plus, on detector-aware targets, the c-weighted detector
      // penalty c*aux(y) (the Carlini–Wagner detector-evasion objective).
      // The aux gradient runs its own model passes, so it must come after
      // the hinge backward (which consumes the Eval caches).
      HingeEval eval =
          eval_attack_hinge(target, ycur, lab, cfg.kappa, cfg.mode);
      Tensor grad = attack_hinge_input_gradient(target, ycur, eval, lab,
                                                cfg.kappa, w, cfg.mode);
      plan.record_passes(stats, 2);  // forward + backward
      if (aux) {
        const Tensor ag = target.aux_input_grad(ycur, w);
        for (std::size_t i = 0, m = grad.numel(); i < m; ++i) {
          grad[i] += ag[i];
        }
      }
      // ISTA step x^(k+1) = S_beta(y - lr * (grad + 2*(y - x0))) (paper
      // eq. (4)) as ONE pass over the batch: the regularizer-gradient
      // add, the gradient step and shrink_project used to be three
      // separate sweeps — fused_ista_step does the identical arithmetic
      // in one (bitwise identical, see attacks/fused.hpp).
      Tensor x_new;
      fused_ista_step(ycur, grad, x0, lr, cfg.beta, x_new);
      if (!plan.sub() && na < n) {
        // Freeze retired rows: their iterate must not move, so the
        // full-batch x_new gets their frozen x rows back before the
        // candidate eval and the y/x updates below.
        for (std::size_t i = 0; i < n; ++i) {
          if (rows.active(i)) continue;
          std::copy_n(x.data() + i * row, row, x_new.data() + i * row);
        }
      }

      // Candidate bookkeeping on the new iterate under every rule.
      // Forward-only: Mode::Infer skips the backward-cache copies.
      HingeEval cand = eval_attack_hinge(target, x_new, lab, cfg.kappa,
                                         cfg.mode, nn::Mode::Infer);
      plan.record_passes(stats, 1);
      // Detector-aware candidates only count when they also evade the
      // detector bank (aux <= 0), and their early-abort objective tracks
      // the penalized loss.
      std::vector<float> aux_cand;
      if (aux) aux_cand = target.aux_loss(x_new);
      to_retire.clear();
      for (std::size_t a = 0; a < na; ++a) {
        const std::size_t g = plan.global(a);  // global batch row
        const std::size_t loc = plan.loc(a);   // row within the sub-batch
        const float* adv = x_new.data() + loc * row;
        const float* nat = images.data() + g * row;
        const bool evades = !aux || aux_cand[loc] <= 0.0f;
        if (attack_succeeded(cand.margin[loc], cfg.kappa) && evades) {
          succeeded_this_step[g] = true;
          for (std::size_t r = 0; r < nrules; ++r) {
            const float dist = rule_distance(rules[r], cfg.beta, adv, nat,
                                             row);
            if (dist < best_dist[r][g]) {
              best_dist[r][g] = dist;
              results[r].success[g] = true;
              std::copy_n(adv, row,
                          results[r].adversarial.data() + g * row);
            }
          }
        }
        if (plateau.enabled()) {
          // Per-row objective: c*f(x) + elastic-net distortion (plus the
          // c-weighted detector penalty on detector-aware targets).
          // Computed from bitwise-identical values in the compacted and
          // dense paths, so the retirement schedule is identical too.
          const float penalty = aux ? aux_cand[loc] : 0.0f;
          const float obj = c[g] * (cand.f[loc] + penalty) +
                            elastic_distance(cfg.beta, adv, nat, row);
          if (plateau.observe(g, obj)) to_retire.push_back(g);
        }
      }

      // FISTA / ISTA iterate updates, written back to the full-size x and
      // y. One shared per-row loop serves both paths (bitwise identity).
      const float zeta = static_cast<float>(k) / static_cast<float>(k + 3);
      for (std::size_t a = 0; a < na; ++a) {
        const std::size_t g = plan.global(a);
        const std::size_t loc = plan.loc(a);
        const float* pn = x_new.data() + loc * row;
        float* py = y.data() + g * row;
        float* px = x.data() + g * row;
        if (cfg.use_fista) {
          // y^(k+1) = x^(k+1) + k/(k+3) * (x^(k+1) - x^(k)).
          for (std::size_t d = 0; d < row; ++d) {
            py[d] = pn[d];
            py[d] += zeta * (pn[d] - px[d]);
          }
        } else {
          std::copy_n(pn, row, py);
        }
        std::copy_n(pn, row, px);
      }

      for (const std::size_t g : to_retire) {
        rows.retire(g);
        ++stats.rows_retired;
      }
    }

    // Per-image binary search over c (standard C&W/EAD schedule).
    for (std::size_t i = 0; i < n; ++i) {
      if (succeeded_this_step[i]) {
        upper[i] = std::min(upper[i], c[i]);
        c[i] = 0.5f * (lower[i] + upper[i]);
      } else {
        lower[i] = std::max(lower[i], c[i]);
        c[i] = upper[i] < 1e9f ? 0.5f * (lower[i] + upper[i]) : c[i] * 10.0f;
      }
    }
  }
  stats.flush(cfg.metrics_name);

  for (std::size_t r = 0; r < nrules; ++r) {
    fill_distortions(results[r], images);
  }
  return results;
}

}  // namespace

std::vector<AttackResult> EadAttack::run_rules(
    AttackTarget& target, const Tensor& images,
    const std::vector<int>& labels,
    std::span<const DecisionRule> rules) const {
  std::vector<AttackResult> results;
  metered(images, [&]() -> const AttackResult& {
    results = optimize(target, images, labels, cfg_, rules);
    return results.front();
  });
  return results;
}

AttackResult EadAttack::run_impl(AttackTarget& target, const Tensor& images,
                                 const std::vector<int>& labels) const {
  const DecisionRule rules[1] = {cfg_.rule};
  return std::move(optimize(target, images, labels, cfg_, rules).front());
}

CwL2Attack::CwL2Attack(EadConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.beta = 0.0f;  // pure L2: shrinkage becomes plain box projection
  cfg_.rule = DecisionRule::L2;
  cfg_.use_fista = false;
  cfg_.mode = HingeMode::Untargeted;
  cfg_.metrics_name = "cw-l2";
}

AttackResult CwL2Attack::run_impl(AttackTarget& target, const Tensor& images,
                                  const std::vector<int>& labels) const {
  const DecisionRule rules[1] = {cfg_.rule};
  return std::move(optimize(target, images, labels, cfg_, rules).front());
}

}  // namespace adv::attacks
