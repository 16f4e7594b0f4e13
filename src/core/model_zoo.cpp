#include "core/model_zoo.hpp"

#include <cstdio>
#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/shard.hpp"
#include "data/syn_digits.hpp"
#include "data/syn_objects.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool.hpp"
#include "nn/structural.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "tensor/serialize.hpp"

namespace adv::core {
namespace {

std::string format_float_key(float v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(v));
  return buf;
}

}  // namespace

nn::Sequential build_classifier(DatasetId id, std::size_t image_hw,
                                Rng& rng) {
  using nn::Conv2d;
  nn::Sequential m;
  const std::size_t in_c = id == DatasetId::Mnist ? 1 : 3;
  m.emplace<Conv2d>(Conv2d::same(in_c, 16), rng);
  m.emplace<nn::ReLU>();
  m.emplace<nn::MaxPool2d>(2);
  m.emplace<Conv2d>(Conv2d::same(16, 32), rng);
  m.emplace<nn::ReLU>();
  m.emplace<nn::MaxPool2d>(2);
  m.emplace<nn::Flatten>();
  const std::size_t spatial = image_hw / 4;
  const std::size_t hidden = id == DatasetId::Mnist ? 100 : 128;
  m.emplace<nn::Linear>(32 * spatial * spatial, hidden, rng);
  m.emplace<nn::ReLU>();
  m.emplace<nn::Linear>(hidden, 10, rng);
  return m;
}

ModelZoo::ModelZoo(ScaleConfig cfg) : cfg_(std::move(cfg)) {
  std::filesystem::create_directories(cfg_.cache_dir);
  // Register the self-healing counters eagerly so they appear (as 0) in
  // every emitted snapshot, clean runs included.
  obs::MetricsRegistry::global().counter("fault/cache_quarantined");
  obs::MetricsRegistry::global().counter("fault/cache_rebuilt");
}

std::filesystem::path ModelZoo::path_for(const std::string& key) const {
  return cfg_.cache_dir / (key + ".bin");
}

std::filesystem::path ModelZoo::attack_path_for(const std::string& key) const {
  return cfg_.cache_dir /
         (key + shard_suffix(shard_index_, shard_count_) + ".bin");
}

void ModelZoo::set_shard(std::size_t index, std::size_t count) {
  if (count == 0 || index >= count) {
    throw std::invalid_argument("ModelZoo::set_shard: need index < count");
  }
  if (!attack_sets_.empty() || !attack_memo_.empty()) {
    throw std::logic_error(
        "ModelZoo::set_shard must be called before any attack runs");
  }
  shard_index_ = index;
  shard_count_ = count;
}

ModelZoo::CacheLoad ModelZoo::try_load_cached(
    const std::filesystem::path& path, const std::function<void()>& do_load) {
  if (!std::filesystem::exists(path)) return CacheLoad::Miss;
  try {
    do_load();
    return CacheLoad::Hit;
  } catch (const std::exception& e) {
    std::filesystem::path quarantined = path;
    quarantined += ".corrupt";
    std::error_code ec;
    std::filesystem::rename(path, quarantined, ec);
    if (ec) std::filesystem::remove(path, ec);  // never re-load a bad file
    // Quarantine events are rare and serious; count them unconditionally
    // (not gated on obs::enabled) so post-mortems always see them.
    obs::MetricsRegistry::global().counter("fault/cache_quarantined").add(1);
    std::fprintf(stderr,
                 "[zoo] warning: quarantined corrupt cache file %s -> %s "
                 "(%s); recomputing\n",
                 path.c_str(), quarantined.c_str(), e.what());
    return CacheLoad::Corrupt;
  }
}

void ModelZoo::note_rebuilt(CacheLoad reason) {
  if (reason == CacheLoad::Corrupt) {
    obs::MetricsRegistry::global().counter("fault/cache_rebuilt").add(1);
  }
}

const ModelZoo::Splits& ModelZoo::dataset(DatasetId id) {
  auto it = datasets_.find(id);
  if (it != datasets_.end()) return it->second;

  const std::size_t total = cfg_.train_count + cfg_.val_count + cfg_.test_count;
  data::Dataset all;
  if (id == DatasetId::Mnist) {
    data::SynDigitsConfig dc;
    dc.count = total;
    dc.seed = cfg_.seed;
    // Hardness calibration (see DESIGN.md §4): pixel noise sets the
    // detectors' clean reconstruction floor, stroke-intensity variation
    // and geometric jitter pull decision boundaries toward the data
    // manifold so small adversarial perturbations exist — the regime in
    // which the paper's L1-vs-L2 separation manifests.
    dc.pixel_noise_std = 0.08f;
    dc.jitter = 0.05f;
    dc.max_rotation_deg = 18.0f;
    dc.stroke_intensity_min = 0.9f;
    all = data::make_syn_digits(dc);
  } else {
    data::SynObjectsConfig oc;
    oc.count = total;
    oc.seed = cfg_.seed + 1;
    // Same hardness rationale as SynDigits: the added pixel noise gives
    // the auto-encoders a denoising target (otherwise the 3-channel CIFAR
    // AE collapses to the identity and MagNet's reformer does nothing).
    oc.pixel_noise_std = 0.06f;
    all = data::make_syn_objects(oc);
  }
  Rng rng(cfg_.seed + 17);
  all.shuffle(rng);
  Splits s;
  auto [train, rest] = data::split(all, cfg_.train_count);
  auto [val, test] = data::split(rest, cfg_.val_count);
  s.train = std::move(train);
  s.val = std::move(val);
  s.test = std::move(test);
  return datasets_.emplace(id, std::move(s)).first->second;
}

std::shared_ptr<nn::Sequential> ModelZoo::classifier(DatasetId id) {
  auto it = classifiers_.find(id);
  if (it != classifiers_.end()) return it->second;

  const Splits& ds = dataset(id);
  const std::size_t hw = ds.train.height();
  Rng rng(cfg_.seed + 101 + static_cast<std::uint64_t>(id));
  auto model = std::make_shared<nn::Sequential>(build_classifier(id, hw, rng));

  const std::string key =
      std::string("classifier_") + to_string(id) + "_" + cfg_.cache_tag();
  const auto path = path_for(key);
  const CacheLoad cl = try_load_cached(path, [&] { model->load(path); });
  if (cl != CacheLoad::Hit) {
    std::printf("[zoo] training %s classifier (%zu images, %zu epochs)...\n",
                to_string(id), ds.train.size(), cfg_.classifier_epochs);
    std::fflush(stdout);
    nn::Adam opt(model->parameters(), model->gradients(), 1e-3f);
    nn::TrainConfig tc;
    tc.epochs = cfg_.classifier_epochs;
    tc.batch_size = cfg_.batch_size;
    tc.shuffle_seed = cfg_.seed + 202;
    nn::fit_classifier(*model, ds.train.images, ds.train.labels, opt, tc);
    model->save(path);
    note_rebuilt(cl);
    std::printf("[zoo] %s classifier: train acc %.3f, test acc %.3f\n",
                to_string(id),
                nn::classification_accuracy(*model, ds.train.images,
                                            ds.train.labels),
                nn::classification_accuracy(*model, ds.test.images,
                                            ds.test.labels));
    std::fflush(stdout);
  }
  classifiers_[id] = model;
  return model;
}

float ModelZoo::clean_test_accuracy(DatasetId id) {
  const Splits& ds = dataset(id);
  return nn::classification_accuracy(*classifier(id), ds.test.images,
                                     ds.test.labels);
}

std::shared_ptr<nn::Sequential> ModelZoo::autoencoder(DatasetId id,
                                                      magnet::AeArch arch,
                                                      std::size_t filters,
                                                      magnet::ReconLoss loss) {
  const std::string key =
      std::string("ae_") + to_string(id) + "_a" +
      std::to_string(static_cast<int>(arch)) + "_f" +
      std::to_string(filters) + "_" +
      (loss == magnet::ReconLoss::Mse ? "mse" : "mae") + "_" +
      cfg_.cache_tag();
  auto it = autoencoders_.find(key);
  if (it != autoencoders_.end()) return it->second;

  const Splits& ds = dataset(id);
  magnet::AutoencoderConfig ac;
  ac.arch = arch;
  ac.image_channels = ds.train.channels();
  ac.filters = filters;
  ac.loss = loss;
  // Wide ("robust") AEs have far more capacity per epoch and dominate the
  // single-core training budget; half the epochs reaches the same
  // reconstruction quality band as the narrow default.
  ac.epochs = filters >= 2 * cfg_.default_filters(id)
                  ? std::max<std::size_t>(10, cfg_.ae_epochs / 2)
                  : cfg_.ae_epochs;
  ac.batch_size = cfg_.batch_size;
  ac.seed = cfg_.seed + 303 + filters + static_cast<std::uint64_t>(arch);

  Rng rng(ac.seed);
  auto model =
      std::make_shared<nn::Sequential>(magnet::build_autoencoder(ac, rng));
  const auto path = path_for(key);
  const CacheLoad cl = try_load_cached(path, [&] { model->load(path); });
  if (cl != CacheLoad::Hit) {
    std::printf("[zoo] training %s (filters=%zu, %s)...\n", key.c_str(),
                filters, loss == magnet::ReconLoss::Mse ? "mse" : "mae");
    std::fflush(stdout);
    model = magnet::train_autoencoder(ac, ds.train.images);
    model->save(path);
    note_rebuilt(cl);
  }
  autoencoders_[key] = model;
  return model;
}

const ModelZoo::AttackSet& ModelZoo::attack_set(DatasetId id) {
  auto it = attack_sets_.find(id);
  if (it != attack_sets_.end()) return it->second;

  const Splits& ds = dataset(id);
  const std::vector<int> pred =
      nn::predict_labels(*classifier(id), ds.test.images);
  std::vector<std::size_t> chosen;
  for (std::size_t i = 0; i < pred.size() && chosen.size() < cfg_.attack_count;
       ++i) {
    if (pred[i] == ds.test.labels[i]) chosen.push_back(i);
  }
  if (chosen.size() < cfg_.attack_count) {
    std::printf(
        "[zoo] warning: only %zu correctly classified test images for %s "
        "(wanted %zu)\n",
        chosen.size(), to_string(id), cfg_.attack_count);
  }
  // Shard slicing happens AFTER the full-set selection so every worker
  // sees the same candidate list; each then keeps its contiguous range.
  // Attacks process images independently, so the per-image results are
  // bitwise identical to the unsharded run's corresponding rows.
  if (shard_count_ > 1) {
    const IndexRange r = shard_range(chosen.size(), shard_index_,
                                     shard_count_);
    chosen = std::vector<std::size_t>(chosen.begin() + r.begin,
                                      chosen.begin() + r.end);
  }
  const data::Dataset subset = ds.test.filter(chosen);
  AttackSet s;
  s.images = subset.images;
  s.labels = subset.labels;
  return attack_sets_.emplace(id, std::move(s)).first->second;
}

void save_attack_result(const std::filesystem::path& path,
                        const attacks::AttackResult& r) {
  std::vector<Tensor> ts;
  ts.push_back(r.adversarial);
  const std::size_t n = r.success.size();
  Tensor meta({4, n});
  for (std::size_t i = 0; i < n; ++i) {
    meta[0 * n + i] = r.success[i] ? 1.0f : 0.0f;
    meta[1 * n + i] = r.l1[i];
    meta[2 * n + i] = r.l2[i];
    meta[3 * n + i] = r.linf[i];
  }
  ts.push_back(std::move(meta));
  save_tensors(path, ts);
}

attacks::AttackResult load_attack_result(const std::filesystem::path& path) {
  const std::vector<Tensor> ts = load_tensors(path);
  if (ts.size() != 2 || ts[1].rank() != 2 || ts[1].dim(0) != 4) {
    throw std::runtime_error("corrupt attack cache: " + path.string());
  }
  attacks::AttackResult r;
  r.adversarial = ts[0];
  const std::size_t n = ts[1].dim(1);
  r.success.resize(n);
  r.l1.resize(n);
  r.l2.resize(n);
  r.linf.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    r.success[i] = ts[1][0 * n + i] != 0.0f;
    r.l1[i] = ts[1][1 * n + i];
    r.l2[i] = ts[1][2 * n + i];
    r.linf[i] = ts[1][3 * n + i];
  }
  return r;
}

std::string ModelZoo::attack_key(DatasetId id, const std::string& tag) const {
  return std::string("atk_") + to_string(id) + "_" + cfg_.cache_tag() + "_" +
         tag;
}

attacks::AttackResult ModelZoo::cached_attack(
    const std::string& name, const std::vector<std::string>& keys,
    const std::function<std::vector<attacks::AttackResult>()>& compute) {
  const std::string& key = keys.front();
  const auto hit = [&] {
    if (obs::enabled()) {
      obs::MetricsRegistry::global()
          .counter("attack/" + name + "/cache_hits")
          .add(1);
    }
  };
  auto it = attack_memo_.find(key);
  if (it != attack_memo_.end()) {
    hit();
    return it->second;
  }
  const auto path = attack_path_for(key);
  // A sharded worker still warm-starts from the canonical (unsharded)
  // artifact when a prior full run produced one; slicing a full result is
  // cheaper than recrafting and bitwise-equal by the argument above.
  if (shard_count_ > 1 && !std::filesystem::exists(path) &&
      std::filesystem::exists(path_for(key))) {
    std::optional<attacks::AttackResult> full;
    if (try_load_cached(path_for(key),
                        [&] { full = load_attack_result(path_for(key)); }) ==
        CacheLoad::Hit) {
      const std::size_t total = full->success.size();
      const IndexRange range = shard_range(total, shard_index_, shard_count_);
      attacks::AttackResult sliced = slice_attack_result(*full, range);
      save_attack_result(path, sliced);
      hit();
      return attack_memo_.emplace(key, std::move(sliced)).first->second;
    }
  }
  std::optional<attacks::AttackResult> loaded;
  const CacheLoad cl =
      try_load_cached(path, [&] { loaded = load_attack_result(path); });
  if (cl == CacheLoad::Hit) {
    hit();
    return attack_memo_.emplace(key, std::move(*loaded)).first->second;
  }
  std::printf("[zoo] crafting %s%s ...\n", key.c_str(),
              keys.size() > 1 ? " (+ siblings)" : "");
  std::fflush(stdout);
  std::vector<attacks::AttackResult> rs = compute();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    save_attack_result(attack_path_for(keys[i]), rs[i]);
    attack_memo_.insert_or_assign(keys[i], std::move(rs[i]));
  }
  note_rebuilt(cl);
  return attack_memo_.at(key);
}

attacks::AttackResult ModelZoo::run_attack(DatasetId id,
                                           const attacks::Attack& attack) {
  // The classifier is only needed on a cache miss, so the oblivious
  // target is built inside the compute lambda — a warm cache never
  // triggers classifier training.
  return cached_attack(attack.name(), {attack_key(id, attack.tag())}, [&] {
    const AttackSet& s = attack_set(id);
    attacks::ObliviousTarget target(*classifier(id));
    return std::vector{attack.run(target, s.images, s.labels)};
  });
}

attacks::AttackResult ModelZoo::run_attack(DatasetId id,
                                           const attacks::Attack& attack,
                                           attacks::AttackTarget& target) {
  return cached_attack(
      attack.name(), {attack_key(id, attack.tag() + target.tag_suffix())},
      [&] {
        const AttackSet& s = attack_set(id);
        return std::vector{attack.run(target, s.images, s.labels)};
      });
}

attacks::AttackOverrides ModelZoo::attack_defaults(DatasetId id) const {
  attacks::AttackOverrides o;
  o.iterations = cfg_.attack_iterations;
  o.binary_search_steps = cfg_.binary_search_steps;
  o.initial_c = cfg_.initial_c_for(id);
  o.learning_rate = cfg_.attack_lr;
  return o;
}

attacks::AttackResult ModelZoo::cw(DatasetId id, float kappa) {
  attacks::AttackOverrides o = attack_defaults(id);
  o.kappa = kappa;
  return run_attack(id, *attacks::make_attack("cw-l2", o));
}

attacks::AttackResult ModelZoo::ead(DatasetId id, float beta, float kappa,
                                    attacks::DecisionRule rule) {
  // One optimization run serves two decision rules (the paper reports EN
  // and L1 side by side); a miss crafts and stores both.
  const attacks::DecisionRule rules[2] = {
      rule, rule == attacks::DecisionRule::L1 ? attacks::DecisionRule::EN
                                              : attacks::DecisionRule::L1};
  std::vector<std::string> keys;
  for (const attacks::DecisionRule r : rules) {
    keys.push_back(attack_key(id, "ead_b" + format_float_key(beta) + "_k" +
                                      format_float_key(kappa) + "_" +
                                      attacks::to_string(r)));
  }
  return cached_attack("ead", keys, [&] {
    attacks::EadConfig c;
    c.beta = beta;
    c.kappa = kappa;
    c.iterations = cfg_.attack_iterations;
    c.binary_search_steps = cfg_.binary_search_steps;
    c.initial_c = cfg_.initial_c_for(id);
    c.learning_rate = cfg_.attack_lr;
    const AttackSet& s = attack_set(id);
    attacks::ObliviousTarget target(*classifier(id));
    return attacks::EadAttack(c).run_rules(target, s.images, s.labels,
                                           rules);
  });
}

attacks::AttackResult ModelZoo::fgsm(DatasetId id, float epsilon,
                                     std::size_t iterations) {
  attacks::AttackOverrides o;
  o.epsilon = epsilon;
  o.iterations = iterations;
  return run_attack(id, *attacks::make_attack("fgsm", o));
}

attacks::AttackResult ModelZoo::deepfool(DatasetId id) {
  return run_attack(id, *attacks::make_attack("deepfool"));
}

}  // namespace adv::core
