// ModelZoo: builds, trains and caches every artifact the experiments
// share — datasets, classifiers, MagNet auto-encoders, and crafted
// adversarial examples.
//
// Training a classifier or running a 1000-iteration attack sweep is
// expensive; fifteen bench binaries reproduce overlapping figures, so all
// artifacts are cached on disk under ScaleConfig::cache_dir keyed by
// ScaleConfig::cache_tag() — the fast/full profile plus a hash of every
// artifact-affecting scale field, so zoos with different counts can share
// one cache_dir safely. Deleting the cache directory forces recomputation.
//
// The cache self-heals: a load that fails for any reason (bad magic or
// version, CRC mismatch, truncation, shape mismatch) quarantines the file
// to `<name>.corrupt`, bumps the `fault/cache_quarantined` counter, and
// transparently recomputes the artifact (`fault/cache_rebuilt`) instead
// of throwing, so a single bit-flipped file cannot kill a long run.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "core/config.hpp"
#include "data/dataset.hpp"
#include "magnet/autoencoder.hpp"
#include "nn/sequential.hpp"

namespace adv::core {

/// Builds the (untrained) CNN classifier for a dataset.
nn::Sequential build_classifier(DatasetId id, std::size_t image_hw,
                                Rng& rng);

/// Persists an AttackResult (adversarial tensor + per-image
/// success/l1/l2/linf metadata) in the repo's CRC'd tensor format via
/// tmp+rename, and reads it back. Exposed so the shard driver can merge
/// per-shard attack artifacts into canonical cache entries without a zoo.
void save_attack_result(const std::filesystem::path& path,
                        const attacks::AttackResult& r);
attacks::AttackResult load_attack_result(const std::filesystem::path& path);

class ModelZoo {
 public:
  explicit ModelZoo(ScaleConfig cfg);

  const ScaleConfig& scale() const { return cfg_; }

  /// Restricts this zoo to shard `index` of `count`: attack_set() returns
  /// only that contiguous slice of the (full-set-selected) attack images,
  /// and attack artifacts are cached under shard-suffixed filenames
  /// (`<key>.shard<k>of<K>.bin`) so concurrent workers sharing one
  /// cache_dir never collide on partial results. Models and datasets are
  /// unaffected — every shard trains/loads the same ones. Must be called
  /// before the first attack_set()/attack use.
  void set_shard(std::size_t index, std::size_t count);
  std::size_t shard_index() const { return shard_index_; }
  std::size_t shard_count() const { return shard_count_; }

  struct Splits {
    data::Dataset train, val, test;
  };

  /// Deterministic synthetic train/val/test splits for `id`.
  const Splits& dataset(DatasetId id);

  /// Trained classifier (cached). Prints a one-line training note on a
  /// cache miss.
  std::shared_ptr<nn::Sequential> classifier(DatasetId id);

  /// Clean test accuracy of the undefended classifier.
  float clean_test_accuracy(DatasetId id);

  /// Trained MagNet auto-encoder (cached) for the given architecture,
  /// width and reconstruction loss.
  std::shared_ptr<nn::Sequential> autoencoder(DatasetId id,
                                              magnet::AeArch arch,
                                              std::size_t filters,
                                              magnet::ReconLoss loss);

  struct AttackSet {
    Tensor images;            // first N correctly classified test images
    std::vector<int> labels;  // their true labels
  };

  /// The fixed set of attacked images (paper: 1000 correctly classified
  /// test images).
  const AttackSet& attack_set(DatasetId id);

  // --- cached attacks (crafted on the UNDEFENDED classifier) -----------

  /// Runs any attacks::Attack (typically built by name through the
  /// AttackRegistry) against the fixed attack set, caching the result on
  /// disk keyed by the attack's tag().
  attacks::AttackResult run_attack(DatasetId id,
                                   const attacks::Attack& attack);

  /// Threat-model-aware variant: crafts through `target` instead of the
  /// bare classifier. The cache key gains target.tag_suffix(), so
  /// gray-box/detector-aware artifacts never collide with oblivious ones
  /// (whose empty suffix preserves every pre-existing cache key).
  attacks::AttackResult run_attack(DatasetId id,
                                   const attacks::Attack& attack,
                                   attacks::AttackTarget& target);

  /// Scale-derived override defaults (iterations, binary-search steps,
  /// initial c, learning rate) for building registry attacks that match
  /// this zoo's experiment budget.
  attacks::AttackOverrides attack_defaults(DatasetId id) const;

  // Named convenience wrappers over run_attack, kept for the bench
  // binaries. ead() additionally shares one optimization run across the
  // EN and L1 decision rules (EadAttack::run_rules), which run_attack
  // cannot; its cache keys name only beta, kappa and the rule.
  attacks::AttackResult cw(DatasetId id, float kappa);
  attacks::AttackResult ead(DatasetId id, float beta, float kappa,
                            attacks::DecisionRule rule);
  attacks::AttackResult fgsm(DatasetId id, float epsilon,
                             std::size_t iterations);
  attacks::AttackResult deepfool(DatasetId id);

 private:
  enum class CacheLoad { Hit, Miss, Corrupt };

  std::filesystem::path path_for(const std::string& key) const;
  /// Cache path for attack artifacts: path_for(key) when unsharded, else
  /// the shard-suffixed variant (see set_shard).
  std::filesystem::path attack_path_for(const std::string& key) const;
  /// Runs `do_load` if `path` exists. Any load exception quarantines the
  /// file to `<path>.corrupt` (counter: fault/cache_quarantined) and
  /// returns Corrupt so the caller recomputes; callers bump
  /// fault/cache_rebuilt after rebuilding a Corrupt entry.
  static CacheLoad try_load_cached(const std::filesystem::path& path,
                                   const std::function<void()>& do_load);
  static void note_rebuilt(CacheLoad reason);
  /// "atk_<dataset>_<cache_tag>_<tag>".
  std::string attack_key(DatasetId id, const std::string& tag) const;
  /// Memo + disk cache for attack artifacts; returns keys[0]'s result.
  /// On a miss, `compute` returns one result per key (one run may yield
  /// sibling artifacts, e.g. EAD's EN and L1 rules) and all are stored.
  /// Hits bump "attack/<name>/cache_hits".
  attacks::AttackResult cached_attack(
      const std::string& name, const std::vector<std::string>& keys,
      const std::function<std::vector<attacks::AttackResult>()>& compute);

  ScaleConfig cfg_;
  std::size_t shard_index_ = 0;
  std::size_t shard_count_ = 1;
  std::map<DatasetId, Splits> datasets_;
  std::map<DatasetId, std::shared_ptr<nn::Sequential>> classifiers_;
  std::map<std::string, std::shared_ptr<nn::Sequential>> autoencoders_;
  std::map<DatasetId, AttackSet> attack_sets_;
  std::map<std::string, attacks::AttackResult> attack_memo_;
};

}  // namespace adv::core
