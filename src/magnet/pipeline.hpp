// MagNetPipeline: the full serial two-stage defense.
//
//   input -> [detector bank: reject if ANY detector fires]
//         -> [reformer: x <- AE(x)]
//         -> DNN classifier -> label
//
// DefenseScheme selects which stages are active, reproducing the paper's
// supplementary ablation (no defense / detector only / reformer only /
// detector & reformer). A pipeline runs its float models, or, when built
// by quantized(), their int8 clones (DESIGN.md §17).
#pragma once

#include <memory>
#include <vector>

#include "magnet/detector.hpp"
#include "nn/sequential.hpp"

namespace adv::magnet {

enum class DefenseScheme { None, DetectorOnly, ReformerOnly, Full };

const char* to_string(DefenseScheme s);

/// One detector's raw output on a batch: its name, calibrated threshold,
/// and per-row scores. reject_row(i) reproduces the detector's decision
/// (score > threshold) without re-running the models.
struct DetectorReading {
  std::string name;
  float threshold = 0.0f;
  std::vector<float> scores;

  bool reject_row(std::size_t i) const { return scores[i] > threshold; }
};

struct DefenseOutcome {
  /// True where some detector rejected the input (always false under
  /// None/ReformerOnly).
  std::vector<bool> rejected;
  /// Predicted label after the (possibly active) reformer; computed for
  /// every row including rejected ones.
  std::vector<int> predicted;
  /// Raw scores + thresholds per detector, in bank order — says WHICH
  /// detector fired, not just that one did. Empty when the scheme runs no
  /// detectors. `rejected` is exactly the OR of reject_row over readings.
  std::vector<DetectorReading> readings;

  /// Rows [begin, end) of this outcome as a standalone outcome: rejected/
  /// predicted sub-ranges plus every reading with its scores sliced (name
  /// and threshold copied). The serve micro-batcher uses this to hand
  /// each coalesced request its exact share of one dense classify()
  /// result. Throws std::out_of_range on a bad range.
  DefenseOutcome slice_rows(std::size_t begin, std::size_t end) const;
};

/// Reformer: projects inputs onto the learned data manifold via the
/// auto-encoder.
class Reformer {
 public:
  explicit Reformer(std::shared_ptr<nn::Sequential> autoencoder);
  Tensor reform(const Tensor& batch) const;

  const std::shared_ptr<nn::Sequential>& autoencoder() const { return ae_; }

 private:
  std::shared_ptr<nn::Sequential> ae_;
};

class MagNetPipeline {
 public:
  explicit MagNetPipeline(std::shared_ptr<nn::Sequential> classifier);

  void add_detector(std::shared_ptr<Detector> detector);
  void set_reformer(std::shared_ptr<Reformer> reformer);

  std::size_t detector_count() const { return detectors_.size(); }
  Detector& detector(std::size_t i) { return *detectors_.at(i); }
  const Detector& detector(std::size_t i) const { return *detectors_.at(i); }
  nn::Sequential& classifier() { return *classifier_; }

  /// Calibrates every detector's threshold at `fpr` on clean validation
  /// images (MagNet's procedure), always from float scores.
  void calibrate(const Tensor& clean_validation, float fpr);

  /// This defense run on per-channel int8 clones (quant::quantize) of
  /// every distinct model — the classifier, the reformer's auto-encoder
  /// and each detector's models() — with activation scales calibrated on
  /// `calib` (core::quant_calibration picks the zoo's rows). Only models
  /// are cloned: the result shares this pipeline's classifier, Detector
  /// objects and reformer, so each threshold exists once and int8 scores
  /// are judged against the float-calibrated thresholds. Runs the float
  /// models, so it counts as a classify() caller.
  std::shared_ptr<MagNetPipeline> quantized(const Tensor& calib) const;

  /// Runs the defense. Detectors must be calibrated when the scheme uses
  /// them; a Full/ReformerOnly scheme without a reformer degrades to the
  /// respective detector-only/no-defense behaviour. Each distinct forward
  /// runs once per call (one Forwards shared by the detectors, the
  /// reformer and the classifier). Not reentrant: the models' layer
  /// caches and workspace arena change on every call, so each pipeline
  /// takes one caller at a time (the serve batcher serializes its calls;
  /// tests and benchmarks that need a reference build a separate
  /// pipeline).
  DefenseOutcome classify(const Tensor& batch,
                          DefenseScheme scheme = DefenseScheme::Full) const;

  /// Accuracy on clean data: fraction neither rejected nor misclassified.
  float clean_accuracy(const Tensor& images, const std::vector<int>& labels,
                       DefenseScheme scheme = DefenseScheme::Full) const;

 private:
  std::shared_ptr<nn::Sequential> classifier_;
  std::vector<std::shared_ptr<Detector>> detectors_;
  std::shared_ptr<Reformer> reformer_;
  // Float model -> int8 clone; empty unless built by quantized().
  Forwards::Clones int8_;
};

}  // namespace adv::magnet
