// FGSM and iterative FGSM (Goodfellow et al.'15; Kurakin et al.'16) —
// L-infinity baselines the paper cites as attacks MagNet defends. The
// attack runs as attacks::FgsmAttack (attacks/attack.hpp).
#pragma once

#include "attacks/common.hpp"

namespace adv::attacks {

struct FgsmConfig {
  float epsilon = 0.1f;      // L-inf budget in [0,1] pixel space
  std::size_t iterations = 1; // 1 = one-shot FGSM; >1 = I-FGSM with step eps/T
  // Row compaction for the active-set engine (see attacks/engine.hpp).
  // Rows retire at their fixed point: the sign-step update is a
  // deterministic per-row map, so a row the step leaves bitwise unchanged
  // can never move again and is safe to drop from subsequent passes.
  // Output-identical on or off.
  bool compact = true;
};

}  // namespace adv::attacks
