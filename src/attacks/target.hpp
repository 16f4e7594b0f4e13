// AttackTarget: the model-composition seam of the attack API.
//
// Every attack in this library optimizes against "a thing that produces
// logits and input gradients". Under the paper's oblivious threat model
// that thing is the bare classifier; Carlini & Wagner (arXiv:1711.08478)
// break MagNet by pointing the same optimizers at the DEFENDED pipeline
// instead — backward through the reformer into the classifier, with the
// detector criteria folded into the objective. AttackTarget abstracts the
// seam so one attack implementation serves all three threat models:
//
//   * ObliviousTarget      — wraps the bare classifier: logits and
//                            input_grad are exactly its forward and
//                            backward.
//   * GrayBoxTarget        — logits(x) = classifier(AE(x)); input_grad
//                            backpropagates through the classifier and
//                            then the auto-encoder (Sequential input
//                            gradients already support this).
//   * DetectorAwareTarget  — GrayBoxTarget composition plus per-row
//                            auxiliary detector-evasion terms (hinged
//                            reconstruction-error / JSD penalties built
//                            from the defender's calibrated detector
//                            bank; see magnet/detector_grad.hpp).
//
// Call contract (mirrors the Sequential one the attacks already obey):
//   1. logits(batch, Mode::Eval) populates backward caches;
//      input_grad(batch, seed) may then be called any number of times
//      (caches are read-only during backward — DeepFool's K per-class
//      backwards rely on this).
//   2. logits(batch, Mode::Infer) is forward-only scoring; no input_grad
//      may follow it.
//   3. aux_loss / aux_input_grad are self-contained: they run their own
//      model passes and therefore CLOBBER any caches from a prior Eval
//      forward. Attacks must finish the hinge backward before touching
//      the aux terms of the same iterate.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace adv::attacks {

/// Threat-model axis of an attack run. Encoded in cache tags (see
/// AttackTarget::tag_suffix) so artifacts crafted under different threat
/// models never collide in the ModelZoo cache.
enum class ThreatModel { Oblivious, GrayBox, DetectorAware };

const char* to_string(ThreatModel tm);

/// Per-row auxiliary objective term added to an attack's loss — in
/// practice a detector-evasion penalty: 0 when the row would pass the
/// detector, positive (scaled by how far over threshold it is) otherwise.
/// Implementations live next to what they differentiate (the MagNet
/// detector terms are in magnet/detector_grad.hpp).
class AuxObjective {
 public:
  virtual ~AuxObjective() = default;

  virtual std::string name() const = 0;

  /// Per-row penalty values; <= 0 means "this row evades the term".
  /// Forward-only (Mode::Infer internally).
  virtual std::vector<float> loss(const Tensor& batch) = 0;

  /// d(sum_i weight[i] * loss_i)/d(batch). Self-contained: runs its own
  /// forward passes (clobbering any prior Eval caches of the models it
  /// shares with the target).
  virtual Tensor input_grad(const Tensor& batch,
                            const std::vector<float>& weight) = 0;
};

/// What an attack optimizes against. See the file comment for the call
/// contract; see Attack::run / the free attack functions for use.
class AttackTarget {
 public:
  virtual ~AttackTarget() = default;

  virtual ThreatModel threat_model() const = 0;

  /// Cache-tag fragment appended to Attack::tag() when artifacts are
  /// cached per target (core::ModelZoo::run_attack). MUST be empty for
  /// the oblivious target — legacy cache keys carry no threat-model
  /// marker and oblivious artifacts must keep resolving to them — and
  /// non-empty (and distinct per configuration) for every other target.
  virtual std::string tag_suffix() const = 0;

  /// Forward pass to raw logits [N, K]. Mode::Eval populates backward
  /// caches for input_grad; Mode::Infer is forward-only scoring.
  virtual Tensor logits(const Tensor& batch, nn::Mode mode) = 0;

  /// Backpropagates `upstream` (d loss / d logits) through whatever
  /// logits(batch, Mode::Eval) ran, returning d loss / d batch. `batch`
  /// is the tensor the caches were built from; repeated calls after one
  /// Eval forward are allowed.
  virtual Tensor input_grad(const Tensor& batch, const Tensor& upstream) = 0;

  /// Auxiliary objective terms (detector evasion). Targets without any
  /// report false and the defaults below are never called.
  virtual bool has_aux() const { return false; }

  /// Element-wise sum of every aux term's per-row loss.
  virtual std::vector<float> aux_loss(const Tensor& batch);

  /// Sum of every aux term's weighted input gradient. Same cache-clobber
  /// caveat as AuxObjective::input_grad.
  virtual Tensor aux_input_grad(const Tensor& batch,
                                const std::vector<float>& weight);
};

/// The paper's oblivious threat model: the bare (undefended) classifier.
/// logits/input_grad are exactly the classifier's forward/backward (gated
/// in attack_target_test; the threat-model bench re-crafts every cached
/// oblivious artifact uncached over a fresh ObliviousTarget).
class ObliviousTarget final : public AttackTarget {
 public:
  explicit ObliviousTarget(nn::Sequential& classifier)
      : classifier_(classifier) {}

  ThreatModel threat_model() const override { return ThreatModel::Oblivious; }
  std::string tag_suffix() const override { return ""; }
  Tensor logits(const Tensor& batch, nn::Mode mode) override;
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override;

 private:
  nn::Sequential& classifier_;
};

/// Gray-box attacker (Carlini & Wagner's first MagNet scenario): knows a
/// reformer auto-encoder sits in front of the classifier and crafts
/// through the composition classifier(AE(x)). The models are NOT fused
/// into one Sequential: keeping them separate lets the same defender
/// instances be shared with detectors and the serving path.
class GrayBoxTarget final : public AttackTarget {
 public:
  /// `tag` must uniquely identify the composition in cache keys; the
  /// default covers "the defender's own reformer" (the bench's setup).
  GrayBoxTarget(nn::Sequential& autoencoder, nn::Sequential& classifier,
                std::string tag = "_tmgray")
      : ae_(autoencoder), classifier_(classifier), tag_(std::move(tag)) {}

  ThreatModel threat_model() const override { return ThreatModel::GrayBox; }
  std::string tag_suffix() const override { return tag_; }
  Tensor logits(const Tensor& batch, nn::Mode mode) override;
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override;

 private:
  nn::Sequential& ae_;
  nn::Sequential& classifier_;
  std::string tag_;
};

/// Detector-aware attacker (Carlini & Wagner's full MagNet break): the
/// gray-box composition for logits/gradients plus hinged detector-evasion
/// penalties as auxiliary objective terms. `autoencoder` may be null for
/// a detector-only defense (logits then come from the bare classifier).
class DetectorAwareTarget final : public AttackTarget {
 public:
  DetectorAwareTarget(nn::Sequential* autoencoder,
                      nn::Sequential& classifier,
                      std::vector<std::shared_ptr<AuxObjective>> aux,
                      std::string tag = "_tmdet");

  ThreatModel threat_model() const override {
    return ThreatModel::DetectorAware;
  }
  std::string tag_suffix() const override { return tag_; }
  Tensor logits(const Tensor& batch, nn::Mode mode) override;
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override;

  bool has_aux() const override { return !aux_.empty(); }
  std::vector<float> aux_loss(const Tensor& batch) override;
  Tensor aux_input_grad(const Tensor& batch,
                        const std::vector<float>& weight) override;

  std::size_t aux_count() const { return aux_.size(); }

 private:
  nn::Sequential* ae_;  // nullable
  nn::Sequential& classifier_;
  std::vector<std::shared_ptr<AuxObjective>> aux_;
  std::string tag_;
};

}  // namespace adv::attacks
