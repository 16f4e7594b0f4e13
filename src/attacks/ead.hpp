// EAD: Elastic-net Attacks to DNNs (Chen et al., AAAI'18), the L1-based
// attack the reproduced paper uses to bypass MagNet.
//
// Solves (paper eq. (1), untargeted form):
//   min_x  c * f(x) + ||x - x0||_2^2 + beta * ||x - x0||_1   s.t. x in [0,1]^p
// via ISTA iterations (eq. (4)) with the pixel-wise projected
// shrinkage-thresholding operator S_beta (eq. (5)), an optional FISTA
// momentum term (the reference implementation's default), per-image binary
// search over c, and the EN / L1 decision rules for selecting the final
// adversarial example. C&W's L2 attack is the beta = 0 special case.
//
// The attack itself runs as attacks::EadAttack / attacks::CwL2Attack
// (attacks/attack.hpp); this header holds its configuration.
#pragma once

#include <string>

#include "attacks/common.hpp"

namespace adv::attacks {

/// Rule for choosing the best successful iterate (paper §III-A).
enum class DecisionRule {
  EN,  // minimize beta*||d||_1 + ||d||_2^2
  L1,  // minimize ||d||_1
  L2,  // minimize ||d||_2 (used by the C&W special case)
};

const char* to_string(DecisionRule r);

struct EadConfig {
  float beta = 1e-2f;       // L1 regularization (paper sweeps 1e-3..1e-1)
  float kappa = 0.0f;       // confidence; success needs margin >= kappa
  std::size_t iterations = 1000;
  std::size_t binary_search_steps = 9;
  float initial_c = 1e-3f;  // paper: binary search starts from 0.001
  float learning_rate = 1e-2f;
  DecisionRule rule = DecisionRule::EN;
  bool use_fista = false;   // plain ISTA per paper eq. (4); FISTA optional
  // Untargeted uses the paper's eq. (3) loss with `labels` = true labels;
  // Targeted uses eq. (2) with `labels` = desired target labels.
  HingeMode mode = HingeMode::Untargeted;

  // --- active-set engine knobs (see attacks/engine.hpp) ---------------
  // Early abort: retire a row inside a binary-search step once its
  // objective c*f(x) + ||x-x0||_2^2 + beta*||x-x0||_1 has gone
  // `abort_early_window` consecutive iterations without improving by more
  // than abort_early_rel_tol * |best|. 0 disables (the default — results
  // are then exactly the full-schedule optimization).
  std::size_t abort_early_window = 0;
  float abort_early_rel_tol = 1e-4f;
  // Row compaction: run model passes on a dense gather of the still-active
  // rows only. Bitwise-identical outputs either way (layers are per-row
  // independent), so this is on by default; off is the benchmark baseline.
  bool compact = true;
  // Name under which engine/observability counters are recorded
  // ("attack/<metrics_name>/..."). CwL2Attack sets "cw-l2".
  std::string metrics_name = "ead";
};

/// The pixel-wise projected shrinkage-thresholding operator S_beta
/// (paper eq. (5)), applied elementwise relative to the natural image x0.
/// Exposed for tests: z, x0 and out must have identical shapes.
void shrink_project(const Tensor& z, const Tensor& x0, float beta,
                    Tensor& out);

}  // namespace adv::attacks
