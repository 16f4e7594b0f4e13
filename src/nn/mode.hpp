// Forward-pass mode shared by every layer and model.
#pragma once

namespace adv::nn {

/// Train enables train-only behaviour (dropout masks); Eval is the
/// deterministic inference path. Attacks differentiate in Eval — backward
/// caches are populated in Train and Eval, so those forward passes remain
/// differentiable. Infer is Eval minus the backward caches: numerically
/// identical outputs, but layers neither make nor overwrite backward
/// caches, so a backward() differentiates the last Train/Eval forward even
/// when Infer passes ran in between. Use it for
/// forward-only passes (candidate scoring inside attacks, prediction,
/// detector scoring).
enum class Mode { Train, Eval, Infer };

inline constexpr bool is_training(Mode mode) { return mode == Mode::Train; }

/// True when a backward() may follow this forward — layers must cache.
inline constexpr bool caches_for_backward(Mode mode) {
  return mode != Mode::Infer;
}

}  // namespace adv::nn
