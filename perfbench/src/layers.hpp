// Per-layer measurements for traced runs: replays of the magnet stages and
// of the named nn models on fixed batches, and per-operation deltas of the
// tensor layer's existing obs counters over a measured phase.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/model_zoo.hpp"
#include "magnet/pipeline.hpp"

namespace perfbench {

/// Replays each magnet stage of `pipe` on `batch`, timed separately:
/// magnet.classify_ms (Full classify), magnet.detectors_ms
/// (Detector::scores of every detector, summed), magnet.reformer_ms
/// (Reformer::reform on the pipeline's reformer auto-encoder),
/// magnet.classifier_ms (classifier forward on the reformed batch) and
/// magnet.forwards_per_classify (model forward calls per Full classify;
/// needs obs enabled).
void replay_magnet(adv::magnet::MagNetPipeline& pipe,
                   std::shared_ptr<adv::nn::Sequential> reformer_ae,
                   const adv::Tensor& batch,
                   std::map<std::string, double>& layer);

/// The default-MagNet models of `id` as the zoo memoizes them — the very
/// instances build_magnet wires into the pipeline: the classifier, the
/// reformer's auto-encoder, then (MNIST) the shallow detector auto-encoder.
std::vector<std::shared_ptr<adv::nn::Sequential>> default_models(
    adv::core::ModelZoo& zoo, adv::core::DatasetId id);

/// Replays of the two models on every classify path, on `batch`:
/// nn.clf_fwd_ms and nn.ae_fwd_ms (Infer forward of the classifier and of
/// the reformer auto-encoder), nn.clf_bwd_ms and nn.ae_bwd_ms (Eval forward
/// plus input-gradient backward).
void replay_nn(adv::nn::Sequential& clf, adv::nn::Sequential& ae,
               const adv::Tensor& batch, std::map<std::string, double>& layer);

/// Snapshot of the counters the tensor and nn layers already publish
/// (model/*, pool/*, conv/*, workspace/*). Deltas are per operation.
struct LayerCounters {
  std::uint64_t forward_calls = 0, backward_calls = 0;
  std::uint64_t pool_calls = 0;
  TimerSnap pool_wait;
  std::uint64_t conv_direct = 0, conv_im2col = 0;
  std::uint64_t ws_bytes_reused = 0;

  static LayerCounters now();
  /// Writes nn.forward_calls, nn.backward_calls, tensor.pool_calls,
  /// tensor.pool_wait_ms, tensor.ws_bytes_reused (each per operation) and
  /// tensor.conv_direct_share for the interval [*this, end].
  void report(const LayerCounters& end, std::uint64_t operations,
              std::map<std::string, double>& layer) const;
};

}  // namespace perfbench
