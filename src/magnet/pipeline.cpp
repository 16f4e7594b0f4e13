#include "magnet/pipeline.hpp"

#include <stdexcept>

#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "quant/quantize.hpp"

namespace adv::magnet {

const char* to_string(DefenseScheme s) {
  switch (s) {
    case DefenseScheme::None: return "no defense";
    case DefenseScheme::DetectorOnly: return "detector";
    case DefenseScheme::ReformerOnly: return "reformer";
    case DefenseScheme::Full: return "detector & reformer";
  }
  return "?";
}

DefenseOutcome DefenseOutcome::slice_rows(std::size_t begin,
                                          std::size_t end) const {
  if (begin > end || end > predicted.size()) {
    throw std::out_of_range("DefenseOutcome::slice_rows: bad range [" +
                            std::to_string(begin) + ", " +
                            std::to_string(end) + ") of " +
                            std::to_string(predicted.size()));
  }
  DefenseOutcome out;
  out.rejected.assign(rejected.begin() + static_cast<std::ptrdiff_t>(begin),
                      rejected.begin() + static_cast<std::ptrdiff_t>(end));
  out.predicted.assign(predicted.begin() + static_cast<std::ptrdiff_t>(begin),
                       predicted.begin() + static_cast<std::ptrdiff_t>(end));
  out.readings.reserve(readings.size());
  for (const DetectorReading& r : readings) {
    DetectorReading s;
    s.name = r.name;
    s.threshold = r.threshold;
    s.scores.assign(r.scores.begin() + static_cast<std::ptrdiff_t>(begin),
                    r.scores.begin() + static_cast<std::ptrdiff_t>(end));
    out.readings.push_back(std::move(s));
  }
  return out;
}

Reformer::Reformer(std::shared_ptr<nn::Sequential> autoencoder)
    : ae_(std::move(autoencoder)) {
  if (!ae_) throw std::invalid_argument("Reformer: null autoencoder");
}

Tensor Reformer::reform(const Tensor& batch) const {
  return nn::predict(*ae_, batch);
}

MagNetPipeline::MagNetPipeline(std::shared_ptr<nn::Sequential> classifier)
    : classifier_(std::move(classifier)) {
  if (!classifier_) throw std::invalid_argument("MagNetPipeline: null classifier");
}

void MagNetPipeline::add_detector(std::shared_ptr<Detector> detector) {
  if (!detector) throw std::invalid_argument("add_detector: null detector");
  detectors_.push_back(std::move(detector));
}

void MagNetPipeline::set_reformer(std::shared_ptr<Reformer> reformer) {
  reformer_ = std::move(reformer);
}

void MagNetPipeline::calibrate(const Tensor& clean_validation, float fpr) {
  for (auto& d : detectors_) d->calibrate(clean_validation, fpr);
}

std::shared_ptr<MagNetPipeline> MagNetPipeline::quantized(
    const Tensor& calib) const {
  auto q = std::make_shared<MagNetPipeline>(*this);
  // One clone per distinct float model: the reformer AE is usually also a
  // detector AE, and the classifier feeds every JSD detector.
  q->int8_.clear();
  const auto clone = [&](const std::shared_ptr<nn::Sequential>& m) {
    if (q->int8_.count(m.get()) == 0) {
      q->int8_.emplace(m.get(), std::make_shared<nn::Sequential>(
                                    quant::quantize(*m, calib)));
    }
  };
  clone(classifier_);
  for (const auto& d : detectors_) {
    for (const auto& m : d->models()) clone(m);
  }
  if (reformer_) clone(reformer_->autoencoder());
  return q;
}

DefenseOutcome MagNetPipeline::classify(const Tensor& batch,
                                        DefenseScheme scheme) const {
  const bool int8 = !int8_.empty();
  Forwards fwd(batch, int8 ? &int8_ : nullptr);

  const std::size_t n = batch.dim(0);
  DefenseOutcome out;
  out.rejected.assign(n, false);

  const bool use_detectors = scheme == DefenseScheme::DetectorOnly ||
                             scheme == DefenseScheme::Full;
  const bool use_reformer = (scheme == DefenseScheme::ReformerOnly ||
                             scheme == DefenseScheme::Full) &&
                            reformer_ != nullptr;
  nn::Sequential* reformer_ae =
      use_reformer ? reformer_->autoencoder().get() : nullptr;

  if (obs::enabled() && int8) {
    static auto& rows =
        obs::MetricsRegistry::global().counter("quant/classify_rows");
    rows.add(n);
  }
  // Per-stage serving latency (adv::obs; no-op unless enabled). A forward
  // is timed in the first stage that needs it; later stages reuse it.
  if (use_detectors) {
    obs::ScopedTimer t("magnet/stage/detectors");
    out.readings.reserve(detectors_.size());
    for (const auto& d : detectors_) {
      // threshold() throws if the detector is not calibrated.
      DetectorReading reading{d->name(), d->threshold(), d->scores_from(fwd)};
      for (std::size_t i = 0; i < n; ++i) {
        if (reading.reject_row(i)) out.rejected[i] = true;
      }
      out.readings.push_back(std::move(reading));
    }
  }
  if (reformer_ae) {
    obs::ScopedTimer t("magnet/stage/reformer");
    fwd.output(*reformer_ae);
  }
  {
    obs::ScopedTimer t("magnet/stage/classifier");
    out.predicted = nn::argmax_labels(fwd.output(*classifier_, reformer_ae));
  }
  return out;
}

float MagNetPipeline::clean_accuracy(const Tensor& images,
                                     const std::vector<int>& labels,
                                     DefenseScheme scheme) const {
  if (images.dim(0) != labels.size()) {
    throw std::invalid_argument("clean_accuracy: image/label count mismatch");
  }
  const DefenseOutcome o = classify(images, scheme);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    // A rejected clean input counts as an error (it is not classified).
    if (!o.rejected[i] && o.predicted[i] == labels[i]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(labels.size());
}

}  // namespace adv::magnet
