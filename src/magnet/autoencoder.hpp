// MagNet auto-encoder architectures (Meng & Chen, CCS'17; Tables II and V
// of the reproduced paper) and their training routine.
//
// Three architecture families, all 3x3 "same" convolutions with sigmoid
// activations:
//   MnistDeep    (Detector I & Reformer): Conv(F) - AvgPool2 - Conv(F) -
//                Conv(F) - Upsample2 - Conv(F) - Conv(out)
//   MnistShallow (Detector II):           Conv(F) - Conv(F) - Conv(out)
//   Cifar        (Detectors & Reformer):  Conv(F) - Conv(F) - Conv(out)
// The default MagNet uses F = 3 filters; the paper's "robust MagNet"
// raises F to 256 (a knob here — fast configs use a smaller width, see
// DESIGN.md §4).
#pragma once

#include <cstdint>
#include <memory>

#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "tensor/rng.hpp"

namespace adv::magnet {

enum class AeArch { MnistDeep, MnistShallow, Cifar };

enum class ReconLoss { Mse, Mae };

struct AutoencoderConfig {
  AeArch arch = AeArch::MnistDeep;
  std::size_t image_channels = 1;
  std::size_t filters = 3;          // MagNet default; 256 in "robust" variants
  ReconLoss loss = ReconLoss::Mse;  // paper Figs. 12/13 compare Mse vs Mae
  float train_noise_std = 0.1f;     // MagNet's noise regularization (v=0.1)
  std::size_t epochs = 30;
  std::size_t batch_size = 64;
  // Sigmoid-activated MagNet AEs converge slowly; 3e-3 escapes the
  // collapse-to-mean plateau that 1e-3 stalls in at these epoch counts.
  float learning_rate = 3e-3f;
  std::uint64_t seed = 31;
};

/// Builds the (untrained) auto-encoder network for `cfg`.
nn::Sequential build_autoencoder(const AutoencoderConfig& cfg, Rng& rng);

/// Builds and trains an auto-encoder on `images` (clean training data).
/// Returns the trained model; reconstruction loss per epoch is appended to
/// `*stats` when non-null.
std::shared_ptr<nn::Sequential> train_autoencoder(
    const AutoencoderConfig& cfg, const Tensor& images,
    nn::TrainStats* stats = nullptr);

}  // namespace adv::magnet
