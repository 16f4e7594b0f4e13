// DeepFool (Moosavi-Dezfooli et al., CVPR'16): iterative minimal-L2
// untargeted attack; another baseline the paper lists among attacks MagNet
// defends. The attack runs as attacks::DeepFoolAttack (attacks/attack.hpp).
#pragma once

#include "attacks/common.hpp"

namespace adv::attacks {

struct DeepFoolConfig {
  std::size_t max_iterations = 30;
  float overshoot = 0.02f;  // eta: multiplicative overshoot per step
  // Row compaction for the active-set engine (see attacks/engine.hpp):
  // already-fooled rows are dropped from the per-iteration forward and the
  // K per-class backwards. Output-identical on or off.
  bool compact = true;
};

}  // namespace adv::attacks
