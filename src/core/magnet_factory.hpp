// Builds the paper's MagNet variants on top of ModelZoo artifacts.
//
//   MNIST  Default (D):   detectors = {recon-L2 on deep AE, recon-L1 on
//                          shallow AE}; reformer = deep AE
//          D+JSD:          + JSD detectors (T = 10, 40)
//          D+256:          same detectors, AE width raised (paper: 256)
//          D+256+JSD:      both changes
//   CIFAR  Default (D):    detectors = {recon-L1, recon-L2, JSD T=10,
//                          JSD T=40} on the CIFAR AE; reformer = same AE
//          D+256:          AE width raised
// All detectors are calibrated on the clean validation split at the
// configured false-positive rate.
#pragma once

#include <memory>
#include <vector>

#include "attacks/target.hpp"
#include "core/model_zoo.hpp"
#include "magnet/pipeline.hpp"

namespace adv::core {

enum class MagnetVariant { Default, Jsd, Wide, WideJsd };

const char* to_string(MagnetVariant v);

/// Builds and calibrates the requested float MagNet pipeline. `ae_loss`
/// selects the auto-encoder reconstruction training loss (paper Figs.
/// 12/13); MagNetPipeline::quantized derives the int8 one.
std::shared_ptr<magnet::MagNetPipeline> build_magnet(
    ModelZoo& zoo, DatasetId id, MagnetVariant variant,
    magnet::ReconLoss ae_loss = magnet::ReconLoss::Mse);

/// The rows int8 activation scales calibrate on: the first min(256, n)
/// clean validation images of `id`. Pass to MagNetPipeline::quantized.
Tensor quant_calibration(ModelZoo& zoo, DatasetId id);

/// An AttackTarget plus everything that must outlive it. The target holds
/// plain references into the owned models (the attack layer is ownership
/// agnostic), so keep the bundle alive for as long as the target is used.
struct AttackTargetBundle {
  std::unique_ptr<attacks::AttackTarget> target;

  // Keep-alives backing the target's references.
  std::shared_ptr<nn::Sequential> classifier;
  std::shared_ptr<nn::Sequential> reformer_ae;  // null for oblivious
  std::vector<std::shared_ptr<attacks::AuxObjective>> aux;  // detector-aware
  /// The calibrated pipeline the detector-aware terms were derived from
  /// (null otherwise). Exposed so callers can evaluate the very defense
  /// instance the attacker modeled.
  std::shared_ptr<magnet::MagNetPipeline> pipeline;
};

/// Builds the attacker's view of dataset `id` under threat model `tm`
/// against the given MagNet variant:
///   Oblivious     — bare classifier (variant unused beyond defaults);
///   GrayBox       — crafts through the variant's reformer auto-encoder
///                   (the same zoo instance the defense serves with);
///   DetectorAware — gray-box composition plus one hinged evasion term
///                   per calibrated detector of the variant's pipeline.
AttackTargetBundle build_attack_target(
    ModelZoo& zoo, DatasetId id, attacks::ThreatModel tm,
    MagnetVariant variant = MagnetVariant::Default,
    magnet::ReconLoss ae_loss = magnet::ReconLoss::Mse);

}  // namespace adv::core
