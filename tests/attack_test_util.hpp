// Shared by the attack test suites: runs an attack under the paper's
// oblivious threat model, i.e. against an ObliviousTarget over the bare
// classifier.
#pragma once

#include <vector>

#include "attacks/attack.hpp"
#include "nn/sequential.hpp"

namespace adv::attacks {

inline AttackResult run_oblivious(const Attack& attack, nn::Sequential& model,
                                  const Tensor& images,
                                  const std::vector<int>& labels) {
  ObliviousTarget target(model);
  return attack.run(target, images, labels);
}

}  // namespace adv::attacks
