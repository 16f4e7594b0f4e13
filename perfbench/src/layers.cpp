#include "layers.hpp"

#include <algorithm>
#include <functional>

#include "nn/trainer.hpp"

namespace perfbench {

using adv::Tensor;

namespace {

/// Median wall milliseconds of `fn` over at least `min_reps` calls and at
/// least `min_ms` of total time, after one untimed warm-up call.
double time_median_ms(const std::function<void()>& fn, std::size_t min_reps,
                      double min_ms) {
  fn();
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < min_reps || ms_since(start) < min_ms) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(std::move(t));
}

// Enough repetitions that the median is stable for sub-millisecond and
// tens-of-millisecond batches alike.
constexpr std::size_t kMinReps = 15;
constexpr double kMinMs = 150.0;

}  // namespace

void replay_magnet(adv::magnet::MagNetPipeline& pipe,
                   std::shared_ptr<adv::nn::Sequential> reformer_ae,
                   const Tensor& batch, std::map<std::string, double>& layer) {
  using adv::magnet::DefenseScheme;
  layer["magnet.classify_ms"] = time_median_ms(
      [&] { pipe.classify(batch, DefenseScheme::Full); }, kMinReps, kMinMs);

  const std::uint64_t f0 = counter("model/forward_calls");
  pipe.classify(batch, DefenseScheme::Full);
  layer["magnet.forwards_per_classify"] =
      static_cast<double>(counter("model/forward_calls") - f0);

  double detectors_ms = 0.0;
  for (std::size_t d = 0; d < pipe.detector_count(); ++d) {
    const adv::magnet::Detector& det = pipe.detector(d);
    detectors_ms +=
        time_median_ms([&] { det.scores(batch); }, kMinReps, kMinMs);
  }
  layer["magnet.detectors_ms"] = detectors_ms;

  const adv::magnet::Reformer reformer(std::move(reformer_ae));
  layer["magnet.reformer_ms"] = time_median_ms(
      [&] { reformer.reform(batch); }, kMinReps, kMinMs);
  const Tensor reformed = reformer.reform(batch);
  layer["magnet.classifier_ms"] = time_median_ms(
      [&] { adv::nn::predict_labels(pipe.classifier(), reformed); }, kMinReps,
      kMinMs);
}

std::vector<std::shared_ptr<adv::nn::Sequential>> default_models(
    adv::core::ModelZoo& zoo, adv::core::DatasetId id) {
  using adv::magnet::AeArch;
  using adv::magnet::ReconLoss;
  const std::size_t filters = zoo.scale().default_filters(id);
  if (id == adv::core::DatasetId::Mnist) {
    return {
        zoo.classifier(id),
        zoo.autoencoder(id, AeArch::MnistDeep, filters, ReconLoss::Mse),
        zoo.autoencoder(id, AeArch::MnistShallow, filters, ReconLoss::Mse),
    };
  }
  return {zoo.classifier(id),
          zoo.autoencoder(id, AeArch::Cifar, filters, ReconLoss::Mse)};
}

void replay_nn(adv::nn::Sequential& clf, adv::nn::Sequential& ae,
               const Tensor& batch, std::map<std::string, double>& layer) {
  const std::pair<const char*, adv::nn::Sequential*> roles[] = {{"clf", &clf},
                                                                {"ae", &ae}};
  for (const auto& [role, model] : roles) {
    adv::nn::Sequential& m = *model;
    const std::string prefix = std::string("nn.") + role;
    layer[prefix + "_fwd_ms"] = time_median_ms(
        [&] { m.forward(batch, adv::nn::Mode::Infer); }, kMinReps, kMinMs);
    const Tensor y = m.forward(batch, adv::nn::Mode::Eval);
    const Tensor seed(y.shape(), 1.0f);
    layer[prefix + "_bwd_ms"] = time_median_ms(
        [&] {
          m.forward(batch, adv::nn::Mode::Eval);
          m.backward(seed);
        },
        kMinReps, kMinMs);
  }
}

LayerCounters LayerCounters::now() {
  LayerCounters c;
  c.forward_calls = counter("model/forward_calls");
  c.backward_calls = counter("model/backward_calls");
  c.pool_calls = counter("pool/parallel_for_calls");
  c.pool_wait = timer("pool/caller_wait");
  c.conv_direct = counter("conv/direct_hits");
  c.conv_im2col = counter("conv/im2col_fallback");
  c.ws_bytes_reused = counter("workspace/bytes_reused");
  return c;
}

void LayerCounters::report(const LayerCounters& end, std::uint64_t operations,
                           std::map<std::string, double>& layer) const {
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(operations, 1));
  const auto per_op = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / ops;
  };
  layer["nn.forward_calls"] = per_op(forward_calls, end.forward_calls);
  layer["nn.backward_calls"] = per_op(backward_calls, end.backward_calls);
  layer["tensor.pool_calls"] = per_op(pool_calls, end.pool_calls);
  layer["tensor.pool_wait_ms"] = total_ms(pool_wait, end.pool_wait) / ops;
  layer["tensor.ws_bytes_reused"] =
      per_op(ws_bytes_reused, end.ws_bytes_reused);
  const std::uint64_t direct = end.conv_direct - conv_direct;
  const std::uint64_t convs = direct + (end.conv_im2col - conv_im2col);
  layer["tensor.conv_direct_share"] =
      convs == 0 ? 0.0
                 : static_cast<double>(direct) / static_cast<double>(convs);
}

}  // namespace perfbench
