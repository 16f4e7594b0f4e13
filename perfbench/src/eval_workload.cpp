// eval-cifar: offline defended classification of CIFAR test images —
// MagNetPipeline::classify under Full on 64-row batches, in process, with
// no serving layer. Each timed batch must match its untimed warm-up result
// bitwise.
#include <cstdio>
#include <memory>

#include "attacks/engine.hpp"
#include "bench.hpp"
#include "core/magnet_factory.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

using adv::Tensor;
using adv::core::DatasetId;
using adv::magnet::DefenseScheme;

constexpr std::size_t kRows = 64;
constexpr std::size_t kBatches = 15;  // 960 of the 1000 test images
// Consecutive windows of the timed batches; op_p90_ms is the median of
// their p90s. A 25 s run times about 600 batches, so each window's p90 has
// about a dozen batches beyond it.
constexpr std::size_t kWindows = 5;

struct EvalStack {
  std::unique_ptr<adv::core::ModelZoo> zoo;
  std::shared_ptr<adv::magnet::MagNetPipeline> pipe;
};

}  // namespace

void run_eval(const Options& opt, Report& report) {
  std::vector<SetupTimes> times;
  EvalStack stack;
  std::vector<Tensor> batches;
  std::vector<std::vector<int>> labels;
  std::vector<adv::magnet::DefenseOutcome> warm;
  for (std::size_t k = 0; k < setups(opt); ++k) {
    stack = {};
    SetupTimes t;
    const auto t0 = Clock::now();
    stack.zoo =
        std::make_unique<adv::core::ModelZoo>(adv::core::scale_from_env());
    auto mark = Clock::now();
    const auto& test = stack.zoo->dataset(DatasetId::Cifar).test;
    t.dataset_s = ms_since(mark) / 1000.0;
    mark = Clock::now();
    default_models(*stack.zoo, DatasetId::Cifar);
    t.models_s = ms_since(mark) / 1000.0;
    mark = Clock::now();
    stack.pipe = adv::core::build_magnet(*stack.zoo, DatasetId::Cifar,
                                         adv::core::MagnetVariant::Default);
    t.build_magnet_s = ms_since(mark) / 1000.0;

    mark = Clock::now();
    // Seeded batches, rebuilt identically on every set-up.
    const std::vector<std::size_t> order = permutation(test.size(), opt.seed);
    batches.clear();
    labels.clear();
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<std::size_t> idx(order.begin() + b * kRows,
                                   order.begin() + (b + 1) * kRows);
      batches.push_back(adv::attacks::gather_rows(test.images, idx));
      labels.emplace_back();
      for (const std::size_t i : idx) labels.back().push_back(test.labels[i]);
    }
    // The first defended batch is the first useful result.
    warm.assign(1, stack.pipe->classify(batches[0], DefenseScheme::Full));
    t.first_result_ms = ms_since(mark);
    t.total_s = ms_since(t0) / 1000.0;
    times.push_back(t);
  }
  report_setups(times, opt.trace, report);

  // Untimed warm-up of every batch: the reference each timed batch is
  // compared against, and the clean-accuracy record.
  std::size_t clean_ok = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (b > 0) {
      warm.push_back(stack.pipe->classify(batches[b], DefenseScheme::Full));
    }
    for (std::size_t i = 0; i < kRows; ++i) {
      if (!warm[b].rejected[i] && warm[b].predicted[i] == labels[b][i]) {
        ++clean_ok;
      }
    }
  }
  // result_share: clean accuracy, as in paper Tables III/VI.
  report.e2e["result_share"] =
      static_cast<double>(clean_ok) / static_cast<double>(kBatches * kRows);

  const LayerCounters c0 = LayerCounters::now();
  std::vector<double> batch_ms;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; ms_since(t0) < 1000.0 * opt.seconds; ++i) {
    const std::size_t b = i % kBatches;
    const auto r0 = Clock::now();
    adv::magnet::DefenseOutcome out;
    {
      SpanScope span("eval.batch", i);
      out = stack.pipe->classify(batches[b], DefenseScheme::Full);
    }
    batch_ms.push_back(ms_since(r0));
    ++report.attempted;
    if (!outcomes_identical(out, warm[b])) ++report.failed;
  }
  const LayerCounters c1 = LayerCounters::now();
  report.e2e["op_p50_ms"] = median(batch_ms);
  report.e2e["op_p90_ms"] = windowed_quantile(batch_ms, 0.90, kWindows);
  report.e2e["items_per_s"] =
      static_cast<double>(kRows) / (median(batch_ms) / 1000.0);
  std::fprintf(stderr, "eval-cifar: %zu batches of %zu rows\n",
               batch_ms.size(), kRows);

  if (!opt.trace) return;
  auto& layer = report.layer;
  c0.report(c1, report.attempted, layer);
  const auto models = default_models(*stack.zoo, DatasetId::Cifar);
  replay_magnet(*stack.pipe, models[1], batches[0], layer);
  replay_nn(*models[0], *models[1], batches[0], layer);
}

}  // namespace perfbench
