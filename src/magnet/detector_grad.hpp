// Differentiable detector-evasion terms: the MagNet detector bank,
// re-expressed as attacks::AuxObjective implementations so a
// DetectorAwareTarget can fold "don't get caught" into an attack's
// objective (Carlini & Wagner's detector-aware break of MagNet,
// arXiv:1711.08478).
//
// Each term is built by one calibrated Detector (Detector::evasion_term)
// and shares its model instances. Its per-row loss is the
// hinged, threshold-normalized overshoot
//
//   aux_i = max(0, score_i - threshold) / max(threshold, eps)
//
// so aux_i <= 0 exactly when the detector would pass row i, and terms
// with very different score scales (reconstruction error vs JSD)
// contribute comparably. The scores come from the detectors' own formula
// functions (recon_error, jsd_rows in magnet/detector.hpp), run over the
// terms' own model passes. input_grad differentiates the same expression
// through the detector's models analytically:
//   * reconstruction error  — d/dx mean|x - AE(x)|^p needs one AE
//     forward/backward (grad = seed - AE^T seed);
//   * JSD                   — dJSD/dp_j = 0.5 ln(p_j / m_j), chained
//     through the temperature softmax and both classifier branches
//     (on x directly and on AE(x)).
#pragma once

#include <memory>
#include <vector>

#include "attacks/target.hpp"
#include "magnet/pipeline.hpp"

namespace adv::magnet {

/// Builds one evasion term per detector in the (calibrated) pipeline's
/// bank, in bank order (Detector::evasion_term), sharing the detectors'
/// own model instances. Throws std::logic_error on an uncalibrated
/// detector and std::invalid_argument on a detector type without a
/// gradient implementation.
std::vector<std::shared_ptr<attacks::AuxObjective>> detector_aux_terms(
    const MagNetPipeline& pipeline);

}  // namespace adv::magnet
