// Attack API: the one way to run an attack. An Attack — built by name
// through the string-keyed registry ("fgsm", "ifgsm", "cw-l2",
// "deepfool", "ead") or constructed from its config — crafts adversarial
// examples with run() against an AttackTarget (attacks/target.hpp), the
// threat-model seam. The paper's oblivious setting is an ObliviousTarget
// over the bare classifier; gray-box and detector-aware targets reach the
// defended pipeline through the same call.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attacks/deepfool.hpp"
#include "attacks/ead.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/target.hpp"

namespace adv::attacks {

/// Optional knob overrides applied on top of an attack's default config
/// when it is built by name. AttackRegistry::create is strict: setting a
/// field the chosen attack does not consume (e.g. beta for FGSM) throws,
/// with the message naming the offending field — a silently-ignored knob
/// is almost always a misconfigured experiment.
struct AttackOverrides {
  std::optional<float> kappa;
  std::optional<float> beta;
  std::optional<float> epsilon;
  std::optional<float> learning_rate;
  std::optional<float> initial_c;
  std::optional<float> overshoot;
  std::optional<std::size_t> iterations;
  std::optional<std::size_t> binary_search_steps;
  std::optional<DecisionRule> rule;
  std::optional<HingeMode> mode;
  // Active-set engine knobs (attacks/engine.hpp). abort_early_* applies to
  // ead/cw-l2; compact to every attack.
  std::optional<std::size_t> abort_early_window;
  std::optional<float> abort_early_rel_tol;
  std::optional<bool> compact;
};

/// Names of the fields set (non-nullopt) in `o`, in declaration order.
/// The registry's strictness check compares these against the chosen
/// attack's relevant-field list.
std::vector<std::string> overrides_set_fields(const AttackOverrides& o);

/// Polymorphic attack: craft adversarial examples for `images` against an
/// AttackTarget (oblivious / gray-box / detector-aware). In untargeted
/// mode `labels` are the true labels; in targeted mode they are the
/// attack targets.
class Attack {
 public:
  virtual ~Attack() = default;

  /// Registry name of the algorithm, e.g. "ead".
  virtual std::string name() const = 0;

  /// Stable parameter-bearing identifier, e.g. "ead_b0.01_k15_EN_i1000".
  /// Distinct configurations must yield distinct tags — caching layers
  /// (core::ModelZoo) key stored artifacts on it, with the target's
  /// tag_suffix() appended to separate threat models.
  virtual std::string tag() const = 0;

  /// Configured per-binary-search-step iteration budget (0 when the
  /// notion does not apply). Feeds the "attack/<name>/iterations" metric.
  virtual std::size_t configured_iterations() const { return 0; }

  /// Crafts adversarial examples for `images` against `target`. When
  /// obs::enabled(), records under "attack/<name()>/...": runs, images,
  /// iterations (configured budget), grad_queries and forward_passes
  /// (deltas of the Sequential model/_calls counters over the run),
  /// successes, a "run" wall-time timer and, when any row succeeded, a
  /// "time_to_success" timer.
  AttackResult run(AttackTarget& target, const Tensor& images,
                   const std::vector<int>& labels) const;

 protected:
  /// The algorithm itself; subclasses implement this instead of run().
  virtual AttackResult run_impl(AttackTarget& target, const Tensor& images,
                                const std::vector<int>& labels) const = 0;

  /// Runs `craft` inside the metrics scope run() opens, recording the
  /// successes of the result `craft` returns. For entry points that
  /// produce more than one result from a single run.
  void metered(const Tensor& images,
               const std::function<const AttackResult&()>& craft) const;
};

/// Untargeted (I-)FGSM: ascends the cross-entropy loss of the true label
/// through the target. On detector-aware targets the auxiliary detector
/// penalty is descended alongside (the sign step follows the combined
/// gradient) and success additionally requires evading the detectors.
class FgsmAttack final : public Attack {
 public:
  /// `name` distinguishes the registry's single-step "fgsm" from the
  /// multi-step "ifgsm" alias in tags and metrics; both share the
  /// algorithm and config.
  explicit FgsmAttack(FgsmConfig cfg = {}, std::string name = "fgsm")
      : cfg_(cfg), name_(std::move(name)) {}
  std::string name() const override;
  std::string tag() const override;
  std::size_t configured_iterations() const override {
    return cfg_.iterations;
  }
  const FgsmConfig& config() const { return cfg_; }

 protected:
  AttackResult run_impl(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels) const override;

 private:
  FgsmConfig cfg_;
  std::string name_;
};

/// Carlini & Wagner's L2 attack (S&P'17) as the beta = 0 special case of
/// EAD (the reproduced paper's §II-B): with beta = 0 the shrinkage
/// operator degenerates to the box projection and the objective is
/// c*f(x) + ||x - x0||_2^2. Detector-aware behaviour is EAD's.
class CwL2Attack final : public Attack {
 public:
  /// Forces beta = 0, the L2 decision rule, plain ISTA, untargeted mode
  /// and the "cw-l2" metrics name; the remaining fields (kappa, the
  /// iteration/search budget, initial c, learning rate and the engine
  /// knobs) are C&W's.
  explicit CwL2Attack(EadConfig cfg = {});
  std::string name() const override;
  std::string tag() const override;
  std::size_t configured_iterations() const override {
    return cfg_.iterations;
  }
  const EadConfig& config() const { return cfg_; }

 protected:
  AttackResult run_impl(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels) const override;

 private:
  EadConfig cfg_;
};

/// DeepFool. The linearized boundary search has no loss term to fold a
/// detector penalty into, so auxiliary objective terms on detector-aware
/// targets only tighten the success criterion (the crafted example must
/// evade the detector bank), not the geometry of the steps.
class DeepFoolAttack final : public Attack {
 public:
  explicit DeepFoolAttack(DeepFoolConfig cfg = {}) : cfg_(cfg) {}
  std::string name() const override;
  std::string tag() const override;
  std::size_t configured_iterations() const override {
    return cfg_.max_iterations;
  }
  const DeepFoolConfig& config() const { return cfg_; }

 protected:
  AttackResult run_impl(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels) const override;

 private:
  DeepFoolConfig cfg_;
};

/// Batched EAD (attacks/ead.hpp). In untargeted mode `labels` are the true
/// labels of `images` (every image is assumed correctly classified — the
/// paper attacks only such images); in targeted mode they are the attack
/// targets. On detector-aware targets the c-weighted detector penalty
/// joins the objective (the Carlini–Wagner detector-evasion formulation)
/// and a candidate only counts as successful when it also evades the
/// detector bank.
class EadAttack final : public Attack {
 public:
  explicit EadAttack(EadConfig cfg = {}) : cfg_(std::move(cfg)) {}
  std::string name() const override;
  std::string tag() const override;
  std::size_t configured_iterations() const override {
    return cfg_.iterations;
  }
  const EadConfig& config() const { return cfg_; }

  /// One optimization run that selects the best successful iterate under
  /// EVERY rule in `rules` (config().rule is ignored); result i
  /// corresponds to rules[i]. The paper reports the EN and L1 rules for
  /// identical settings, so sharing one run halves attack compute.
  /// Metrics as run(), recording the successes of rules[0] (the rules
  /// share success flags).
  std::vector<AttackResult> run_rules(
      AttackTarget& target, const Tensor& images,
      const std::vector<int>& labels,
      std::span<const DecisionRule> rules) const;

 protected:
  AttackResult run_impl(AttackTarget& target, const Tensor& images,
                        const std::vector<int>& labels) const override;

 private:
  EadConfig cfg_;
};

/// String-keyed attack factory registry. The four built-in algorithms
/// (plus the "ifgsm" multi-step alias) are registered on first use;
/// out-of-tree attacks can add themselves via add().
class AttackRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Attack>(const AttackOverrides&)>;

  /// Process-wide registry with the built-ins pre-registered.
  static AttackRegistry& instance();

  /// Registers a factory together with the override fields it consumes
  /// (names as in AttackOverrides; see overrides_set_fields). create()
  /// rejects overrides that set any other field. Throws
  /// std::invalid_argument on a null factory or a duplicate name.
  void add(const std::string& name, std::vector<std::string> relevant_fields,
           Factory factory);

  /// Builds the named attack. Throws std::invalid_argument for unknown
  /// names (the message lists what is registered) and for overrides that
  /// set a field irrelevant to the attack (the message names the field;
  /// the "attack/overrides_rejected" obs counter is bumped first).
  std::unique_ptr<Attack> create(const std::string& name,
                                 const AttackOverrides& overrides = {}) const;

  bool contains(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

 private:
  struct Entry {
    Factory factory;
    std::vector<std::string> relevant;
  };

  AttackRegistry();
  std::map<std::string, Entry> factories_;
};

/// Convenience wrapper over AttackRegistry::instance().create().
std::unique_ptr<Attack> make_attack(const std::string& name,
                                    const AttackOverrides& overrides = {});

}  // namespace adv::attacks
