// attack-ead: detector-aware EAD (beta 1e-2, EN rule, kappa 0, the zoo's
// attack budget) through the default MNIST MagNet, called directly via
// Attack::run on 10-image requests drawn from the 60-image attack set.
// Each request's output is scored by a Full classify on the very pipeline
// the attacker modelled, and checked: every pixel in [0, 1], every
// successful row confirmed by a re-run forward of the target, every failed
// row left at its natural image. One operation is one request: op_p50_ms
// and op_p90_ms are request times, items_per_s is images per median
// request second, result_share the share of attacked images that Full
// neither rejects nor classifies correctly (bypass, the paper's headline
// quantity).
#include <cstdio>
#include <cstring>
#include <memory>

#include "attacks/attack.hpp"
#include "attacks/common.hpp"
#include "attacks/engine.hpp"
#include "bench.hpp"
#include "core/magnet_factory.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

using adv::Tensor;
using adv::attacks::AttackTarget;
using adv::core::DatasetId;
using adv::magnet::DefenseScheme;

constexpr std::size_t kRequestImages = 10;
constexpr float kKappa = 0.0f;

/// Forwarding AttackTarget that times each call into the wrapped target
/// and counts the rows its model passes ran on.
class TimedTarget final : public AttackTarget {
 public:
  explicit TimedTarget(AttackTarget& inner) : inner_(inner) {}

  adv::attacks::ThreatModel threat_model() const override {
    return inner_.threat_model();
  }
  std::string tag_suffix() const override { return inner_.tag_suffix(); }

  Tensor logits(const Tensor& batch, adv::nn::Mode mode) override {
    SpanScope span("attack.logits");
    const auto t0 = Clock::now();
    Tensor out = inner_.logits(batch, mode);
    logits_ms += ms_since(t0);
    row_passes += batch.dim(0);
    return out;
  }
  Tensor input_grad(const Tensor& batch, const Tensor& upstream) override {
    SpanScope span("attack.input_grad");
    const auto t0 = Clock::now();
    Tensor out = inner_.input_grad(batch, upstream);
    input_grad_ms += ms_since(t0);
    row_passes += batch.dim(0);
    return out;
  }
  bool has_aux() const override { return inner_.has_aux(); }
  std::vector<float> aux_loss(const Tensor& batch) override {
    SpanScope span("attack.aux_loss");
    const auto t0 = Clock::now();
    std::vector<float> out = inner_.aux_loss(batch);
    aux_loss_ms += ms_since(t0);
    return out;
  }
  Tensor aux_input_grad(const Tensor& batch,
                        const std::vector<float>& weight) override {
    SpanScope span("attack.aux_grad");
    const auto t0 = Clock::now();
    Tensor out = inner_.aux_input_grad(batch, weight);
    aux_grad_ms += ms_since(t0);
    return out;
  }

  double logits_ms = 0, input_grad_ms = 0, aux_loss_ms = 0, aux_grad_ms = 0;
  std::uint64_t row_passes = 0;

 private:
  AttackTarget& inner_;
};

struct AttackStack {
  std::unique_ptr<adv::core::ModelZoo> zoo;
  adv::core::AttackTargetBundle bundle;
};

/// True when `r` is a valid answer to the request: pixels in [0, 1];
/// successful rows reach margin >= kappa and evade every detector term on
/// a fresh forward of the target; failed rows are the natural image.
bool check_output(AttackTarget& target, const adv::attacks::AttackResult& r,
                  const Tensor& images, const std::vector<int>& labels) {
  const Tensor& adv = r.adversarial;
  if (adv.numel() != images.numel()) return false;
  for (std::size_t i = 0; i < adv.numel(); ++i) {
    if (!(adv[i] >= 0.0f && adv[i] <= 1.0f)) return false;
  }
  const std::size_t n = images.dim(0);
  const std::size_t row = images.numel() / n;
  const auto eval = adv::attacks::eval_attack_hinge(
      target, adv, labels, kKappa, adv::attacks::HingeMode::Untargeted,
      adv::nn::Mode::Infer);
  const std::vector<float> aux =
      target.has_aux() ? target.aux_loss(adv) : std::vector<float>(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    if (r.success[i]) {
      if (!adv::attacks::attack_succeeded(eval.margin[i], kKappa) ||
          aux[i] > 0.0f) {
        return false;
      }
    } else if (std::memcmp(adv.data() + i * row, images.data() + i * row,
                           row * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_attack(const Options& opt, Report& report) {
  std::vector<SetupTimes> times;
  AttackStack stack;
  for (std::size_t k = 0; k < setups(opt); ++k) {
    stack = {};
    SetupTimes t;
    const auto t0 = Clock::now();
    stack.zoo =
        std::make_unique<adv::core::ModelZoo>(adv::core::scale_from_env());
    auto mark = Clock::now();
    stack.zoo->dataset(DatasetId::Mnist);
    t.dataset_s = ms_since(mark) / 1000.0;
    mark = Clock::now();
    default_models(*stack.zoo, DatasetId::Mnist);
    t.models_s = ms_since(mark) / 1000.0;
    mark = Clock::now();
    stack.bundle = adv::core::build_attack_target(
        *stack.zoo, DatasetId::Mnist, adv::attacks::ThreatModel::DetectorAware,
        adv::core::MagnetVariant::Default);
    t.build_magnet_s = ms_since(mark) / 1000.0;
    mark = Clock::now();
    stack.zoo->attack_set(DatasetId::Mnist);
    t.first_result_ms = ms_since(mark);
    t.total_s = ms_since(t0) / 1000.0;
    times.push_back(t);
  }
  report_setups(times, opt.trace, report);

  adv::attacks::AttackOverrides o =
      stack.zoo->attack_defaults(DatasetId::Mnist);
  o.beta = 1e-2f;
  o.kappa = kKappa;
  o.rule = adv::attacks::DecisionRule::EN;
  const auto attack = adv::attacks::make_attack("ead", o);

  const auto& set = stack.zoo->attack_set(DatasetId::Mnist);
  const std::size_t n = set.images.dim(0);
  TimedTarget timed(*stack.bundle.target);
  AttackTarget& target =
      opt.trace ? static_cast<AttackTarget&>(timed) : *stack.bundle.target;
  adv::magnet::MagNetPipeline& pipe = *stack.bundle.pipeline;

  const LayerCounters c0 = LayerCounters::now();
  const std::uint64_t saved0 = counter("attack/ead/passes_saved");
  const std::uint64_t queries0 = counter("attack/ead/grad_queries");
  std::vector<double> req_ms, eval_ms;
  std::size_t attacked = 0, bypassed = 0;
  std::vector<std::size_t> order;
  const auto t0 = Clock::now();
  // At least one request; then whole requests until the time is up.
  for (std::size_t q = 0; q == 0 || ms_since(t0) < 1000.0 * opt.seconds; ++q) {
    // Fixed 10-image requests over a seeded shuffle of the attack set,
    // reshuffled every pass through it.
    const std::size_t per_pass = n / kRequestImages;
    if (q % per_pass == 0) {
      order = permutation(n, opt.seed * 1000 + q / per_pass);
    }
    const std::size_t first = (q % per_pass) * kRequestImages;
    const std::vector<std::size_t> idx(order.begin() + first,
                                       order.begin() + first + kRequestImages);
    const Tensor images = adv::attacks::gather_rows(set.images, idx);
    std::vector<int> labels;
    for (const std::size_t i : idx) labels.push_back(set.labels[i]);

    adv::attacks::AttackResult r;
    {
      SpanScope span("attack.request", q);
      const auto r0 = Clock::now();
      r = attack->run(target, images, labels);
      req_ms.push_back(ms_since(r0));
    }
    adv::magnet::DefenseOutcome out;
    {
      SpanScope span("attack.eval", q);
      const auto e0 = Clock::now();
      out = pipe.classify(r.adversarial, DefenseScheme::Full);
      eval_ms.push_back(ms_since(e0));
    }
    ++report.attempted;
    if (!check_output(*stack.bundle.target, r, images, labels)) ++report.failed;
    for (std::size_t i = 0; i < kRequestImages; ++i) {
      ++attacked;
      if (!out.rejected[i] && out.predicted[i] != labels[i]) ++bypassed;
    }
  }
  const LayerCounters c1 = LayerCounters::now();
  report.e2e["op_p50_ms"] = median(req_ms);
  report.e2e["op_p90_ms"] = quantile(req_ms, 0.90);
  report.e2e["items_per_s"] =
      static_cast<double>(kRequestImages) / (median(req_ms) / 1000.0);
  report.e2e["result_share"] =
      static_cast<double>(bypassed) / static_cast<double>(attacked);
  std::fprintf(stderr, "attack-ead: %zu requests of %zu images, ms:",
               req_ms.size(), kRequestImages);
  for (const double ms : req_ms) std::fprintf(stderr, " %.0f", ms);
  std::fprintf(stderr, "\n");

  if (!opt.trace) return;
  auto& layer = report.layer;
  c0.report(c1, report.attempted, layer);

  const double reqs = static_cast<double>(req_ms.size());
  layer["attack.req_ms"] = mean(req_ms);
  layer["attack.logits_ms"] = timed.logits_ms / reqs;
  layer["attack.input_grad_ms"] = timed.input_grad_ms / reqs;
  layer["attack.aux_loss_ms"] = timed.aux_loss_ms / reqs;
  layer["attack.aux_grad_ms"] = timed.aux_grad_ms / reqs;
  const auto self = SpanLog::global().mean_self_ms();
  layer["attack.self_ms"] =
      self.count("attack.request") ? self.at("attack.request") : 0.0;
  layer["attack.grad_queries"] =
      static_cast<double>(counter("attack/ead/grad_queries") - queries0) / reqs;
  const double saved =
      static_cast<double>(counter("attack/ead/passes_saved") - saved0);
  layer["attack.passes_saved_share"] =
      saved / (saved + static_cast<double>(timed.row_passes));
  layer["attack.eval_ms"] = mean(eval_ms);
  if (opt.probe) return;

  // Replays on the attack set's first 10 images.
  const Tensor batch = set.images.slice_rows(0, kRequestImages);
  const auto models = default_models(*stack.zoo, DatasetId::Mnist);
  replay_magnet(pipe, models[1], batch, layer);
  replay_nn(*models[0], *models[1], batch, layer);
}

}  // namespace perfbench
