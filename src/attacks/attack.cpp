#include "attacks/attack.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace adv::attacks {
namespace {

// Compact float formatting for cache tags: 0.01 -> "0.01", 15 -> "15".
std::string fmt(float v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(v));
  return buf;
}

// Early-abort tag suffix. Aborting changes which iterates are visited, so
// the knobs must be part of the cache identity; row compaction is
// bitwise-neutral and deliberately left out of tags (cached artifacts stay
// valid when it is toggled).
std::string abort_suffix(std::size_t window, float rel_tol) {
  if (window == 0) return "";
  return "_ae" + std::to_string(window) + "x" + fmt(rel_tol);
}

// RAII recorder of one attack run's "attack/<name>/..." metrics (see
// Attack::run); inert when obs is disabled at construction.
class MetricsScope {
 public:
  MetricsScope(std::string name, std::size_t configured_iterations,
               std::size_t image_count)
      : active_(obs::enabled()), name_(std::move(name)) {
    if (!active_) return;
    auto& reg = obs::MetricsRegistry::global();
    start_ = std::chrono::steady_clock::now();
    forward0_ = reg.counter("model/forward_calls").value();
    backward0_ = reg.counter("model/backward_calls").value();
    reg.counter("attack/" + name_ + "/runs").add(1);
    reg.counter("attack/" + name_ + "/images").add(image_count);
    reg.counter("attack/" + name_ + "/iterations").add(configured_iterations);
  }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

  ~MetricsScope() {
    if (!active_) return;
    auto& reg = obs::MetricsRegistry::global();
    reg.timer("attack/" + name_ + "/run").record_ns(elapsed_ns());
    reg.counter("attack/" + name_ + "/grad_queries")
        .add(reg.counter("model/backward_calls").value() - backward0_);
    reg.counter("attack/" + name_ + "/forward_passes")
        .add(reg.counter("model/forward_calls").value() - forward0_);
  }

  void record_outcome(const AttackResult& result) {
    if (!active_) return;
    auto& reg = obs::MetricsRegistry::global();
    const std::size_t successes = result.success_count();
    reg.counter("attack/" + name_ + "/successes").add(successes);
    if (successes > 0) {
      reg.timer("attack/" + name_ + "/time_to_success")
          .record_ns(elapsed_ns());
    }
  }

 private:
  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  bool active_ = false;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t forward0_ = 0;
  std::uint64_t backward0_ = 0;
};

}  // namespace

std::vector<std::string> overrides_set_fields(const AttackOverrides& o) {
  std::vector<std::string> out;
  if (o.kappa) out.emplace_back("kappa");
  if (o.beta) out.emplace_back("beta");
  if (o.epsilon) out.emplace_back("epsilon");
  if (o.learning_rate) out.emplace_back("learning_rate");
  if (o.initial_c) out.emplace_back("initial_c");
  if (o.overshoot) out.emplace_back("overshoot");
  if (o.iterations) out.emplace_back("iterations");
  if (o.binary_search_steps) out.emplace_back("binary_search_steps");
  if (o.rule) out.emplace_back("rule");
  if (o.mode) out.emplace_back("mode");
  if (o.abort_early_window) out.emplace_back("abort_early_window");
  if (o.abort_early_rel_tol) out.emplace_back("abort_early_rel_tol");
  if (o.compact) out.emplace_back("compact");
  return out;
}

void Attack::metered(const Tensor& images,
                     const std::function<const AttackResult&()>& craft) const {
  MetricsScope scope(name(), configured_iterations(),
                     images.rank() ? images.dim(0) : 0);
  scope.record_outcome(craft());
}

AttackResult Attack::run(AttackTarget& target, const Tensor& images,
                         const std::vector<int>& labels) const {
  AttackResult result;
  metered(images, [&]() -> const AttackResult& {
    result = run_impl(target, images, labels);
    return result;
  });
  return result;
}

std::string FgsmAttack::name() const { return name_; }

std::string FgsmAttack::tag() const {
  return name_ + "_e" + fmt(cfg_.epsilon) + "_i" +
         std::to_string(cfg_.iterations);
}

std::string CwL2Attack::name() const { return "cw-l2"; }

std::string CwL2Attack::tag() const {
  return "cw_k" + fmt(cfg_.kappa) + "_i" + std::to_string(cfg_.iterations) +
         "_s" + std::to_string(cfg_.binary_search_steps) + "_c" +
         fmt(cfg_.initial_c) + "_lr" + fmt(cfg_.learning_rate) +
         abort_suffix(cfg_.abort_early_window, cfg_.abort_early_rel_tol);
}

std::string DeepFoolAttack::name() const { return "deepfool"; }

std::string DeepFoolAttack::tag() const {
  return "deepfool_i" + std::to_string(cfg_.max_iterations) + "_o" +
         fmt(cfg_.overshoot);
}

std::string EadAttack::name() const { return "ead"; }

std::string EadAttack::tag() const {
  return std::string("ead_b") + fmt(cfg_.beta) + "_k" + fmt(cfg_.kappa) +
         "_" + to_string(cfg_.rule) + "_i" + std::to_string(cfg_.iterations) +
         "_s" + std::to_string(cfg_.binary_search_steps) + "_c" +
         fmt(cfg_.initial_c) + "_lr" + fmt(cfg_.learning_rate) +
         (cfg_.use_fista ? "_fista" : "") +
         (cfg_.mode == HingeMode::Targeted ? "_tgt" : "") +
         abort_suffix(cfg_.abort_early_window, cfg_.abort_early_rel_tol);
}

namespace {

FgsmConfig fgsm_config(const AttackOverrides& o, std::size_t iterations) {
  FgsmConfig cfg;
  cfg.iterations = iterations;
  if (o.epsilon) cfg.epsilon = *o.epsilon;
  if (o.iterations) cfg.iterations = *o.iterations;
  if (o.compact) cfg.compact = *o.compact;
  return cfg;
}

// Serves "ead" and "cw-l2"; the latter's field list rejects beta, rule and
// mode before a factory runs.
EadConfig ead_config(const AttackOverrides& o) {
  EadConfig cfg;
  if (o.beta) cfg.beta = *o.beta;
  if (o.kappa) cfg.kappa = *o.kappa;
  if (o.iterations) cfg.iterations = *o.iterations;
  if (o.binary_search_steps) cfg.binary_search_steps = *o.binary_search_steps;
  if (o.initial_c) cfg.initial_c = *o.initial_c;
  if (o.learning_rate) cfg.learning_rate = *o.learning_rate;
  if (o.rule) cfg.rule = *o.rule;
  if (o.mode) cfg.mode = *o.mode;
  if (o.abort_early_window) cfg.abort_early_window = *o.abort_early_window;
  if (o.abort_early_rel_tol) cfg.abort_early_rel_tol = *o.abort_early_rel_tol;
  if (o.compact) cfg.compact = *o.compact;
  return cfg;
}

}  // namespace

AttackRegistry::AttackRegistry() {
  const std::vector<std::string> fgsm_fields = {"epsilon", "iterations",
                                                "compact"};
  add("fgsm", fgsm_fields, [](const AttackOverrides& o) {
    return std::make_unique<FgsmAttack>(fgsm_config(o, 1));
  });
  add("ifgsm", fgsm_fields, [](const AttackOverrides& o) {
    return std::make_unique<FgsmAttack>(fgsm_config(o, 10), "ifgsm");
  });
  add("cw-l2",
      {"kappa", "iterations", "binary_search_steps", "initial_c",
       "learning_rate", "abort_early_window", "abort_early_rel_tol",
       "compact"},
      [](const AttackOverrides& o) {
        return std::make_unique<CwL2Attack>(ead_config(o));
      });
  add("deepfool", {"iterations", "overshoot", "compact"},
      [](const AttackOverrides& o) {
        DeepFoolConfig cfg;
        if (o.iterations) cfg.max_iterations = *o.iterations;
        if (o.overshoot) cfg.overshoot = *o.overshoot;
        if (o.compact) cfg.compact = *o.compact;
        return std::make_unique<DeepFoolAttack>(cfg);
      });
  add("ead",
      {"kappa", "beta", "iterations", "binary_search_steps", "initial_c",
       "learning_rate", "rule", "mode", "abort_early_window",
       "abort_early_rel_tol", "compact"},
      [](const AttackOverrides& o) {
        return std::make_unique<EadAttack>(ead_config(o));
      });
}

AttackRegistry& AttackRegistry::instance() {
  // Built-ins are registered in the constructor (not via static
  // self-registration, which a static-library link would strip).
  static AttackRegistry registry;
  return registry;
}

void AttackRegistry::add(const std::string& name,
                         std::vector<std::string> relevant_fields,
                         Factory factory) {
  if (!factory) {
    throw std::invalid_argument("AttackRegistry::add: null factory for '" +
                                name + "'");
  }
  Entry entry{std::move(factory), std::move(relevant_fields)};
  if (!factories_.emplace(name, std::move(entry)).second) {
    throw std::invalid_argument("AttackRegistry::add: duplicate attack '" +
                                name + "'");
  }
}

std::unique_ptr<Attack> AttackRegistry::create(
    const std::string& name, const AttackOverrides& overrides) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string known;
    for (const auto& [key, unused] : factories_) {
      (void)unused;
      known += known.empty() ? key : ", " + key;
    }
    throw std::invalid_argument("AttackRegistry: unknown attack '" + name +
                                "' (registered: " + known + ")");
  }
  const Entry& entry = it->second;
  for (const std::string& field : overrides_set_fields(overrides)) {
    if (std::find(entry.relevant.begin(), entry.relevant.end(), field) ==
        entry.relevant.end()) {
      if (obs::enabled()) {
        obs::MetricsRegistry::global()
            .counter("attack/overrides_rejected")
            .add(1);
      }
      throw std::invalid_argument("AttackRegistry: override field '" + field +
                                  "' is not consumed by attack '" + name +
                                  "' (it would be silently ignored)");
    }
  }
  return entry.factory(overrides);
}

bool AttackRegistry::contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> AttackRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [key, unused] : factories_) {
    (void)unused;
    out.push_back(key);
  }
  return out;
}

std::unique_ptr<Attack> make_attack(const std::string& name,
                                    const AttackOverrides& overrides) {
  return AttackRegistry::instance().create(name, overrides);
}

}  // namespace adv::attacks
