// adv::shard tests: range tiling, the --shard CLI protocol, metric-dump
// parse/merge fixtures, attack-result slice/merge identity, artifact-
// cache merging, the 2-shard-vs-unsharded bitwise gate, and the fork/exec
// driver end to end (including crash-retry via ADV_FAULT).
//
// This binary doubles as its own shard worker: when invoked with
// --shard-sim it acts as a tiny shard-aware bench (writes one artifact
// piece and one metric dump, honors the shard.worker failpoints) instead
// of running gtest. The driver tests spawn /proc/self/exe that way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/model_zoo.hpp"
#include "core/shard.hpp"
#include "fault/failpoint.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"

namespace adv::core {
namespace {

namespace fs = std::filesystem;
using Sample = obs::MetricsRegistry::Sample;
using Kind = Sample::Kind;

// --- helpers ----------------------------------------------------------

class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    had_ = v != nullptr;
    if (v) saved_ = v;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

class ScopedChdir {
 public:
  explicit ScopedChdir(const fs::path& p) : old_(fs::current_path()) {
    fs::create_directories(p);
    fs::current_path(p);
  }
  ~ScopedChdir() { fs::current_path(old_); }

 private:
  fs::path old_;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path fresh_temp_dir(const std::string& leaf) {
  const fs::path p = fs::temp_directory_path() / leaf;
  fs::remove_all(p);
  fs::create_directories(p);
  return p;
}

/// 5 rows of 1x2x2 images with distinct values — the fixture the sim
/// worker slices and the merge tests reassemble.
attacks::AttackResult sim_fixture() {
  attacks::AttackResult r;
  r.adversarial = Tensor({5, 1, 2, 2});
  for (std::size_t i = 0; i < r.adversarial.numel(); ++i) {
    r.adversarial[i] = 0.25f * static_cast<float>(i) - 1.0f;
  }
  r.success = {true, false, true, true, false};
  r.l1 = {1.0f, 0.0f, 3.0f, 4.0f, 0.0f};
  r.l2 = {0.5f, 0.0f, 1.5f, 2.0f, 0.0f};
  r.linf = {0.1f, 0.0f, 0.3f, 0.4f, 0.0f};
  return r;
}

void expect_result_eq(const attacks::AttackResult& a,
                      const attacks::AttackResult& b) {
  ASSERT_EQ(a.adversarial.shape(), b.adversarial.shape());
  for (std::size_t i = 0; i < a.adversarial.numel(); ++i) {
    ASSERT_EQ(a.adversarial[i], b.adversarial[i]) << "pixel " << i;
  }
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.l1, b.l1);
  EXPECT_EQ(a.l2, b.l2);
  EXPECT_EQ(a.linf, b.linf);
}

// --- shard_range / shard_suffix ---------------------------------------

TEST(ShardRange, TilesExactlyWithBalancedSizes) {
  for (const std::size_t total : {0u, 1u, 5u, 7u, 64u, 1000u}) {
    for (const std::size_t count : {1u, 2u, 3u, 7u, 16u}) {
      std::size_t covered = 0, min_sz = total + 1, max_sz = 0;
      std::size_t expect_begin = 0;
      for (std::size_t k = 0; k < count; ++k) {
        const IndexRange r = shard_range(total, k, count);
        EXPECT_EQ(r.begin, expect_begin) << total << " " << k << "/" << count;
        expect_begin = r.end;
        covered += r.size();
        min_sz = std::min(min_sz, r.size());
        max_sz = std::max(max_sz, r.size());
      }
      EXPECT_EQ(expect_begin, total);
      EXPECT_EQ(covered, total);
      if (total >= count) {
        EXPECT_LE(max_sz - min_sz, 1u);
      }
    }
  }
}

TEST(ShardRange, RejectsOutOfRangeIndex) {
  EXPECT_THROW(shard_range(10, 2, 2), std::invalid_argument);
  EXPECT_THROW(shard_range(10, 0, 0), std::invalid_argument);
}

TEST(ShardSuffix, EmptyUnshardedInfixOtherwise) {
  EXPECT_EQ(shard_suffix(0, 1), "");
  EXPECT_EQ(shard_suffix(0, 2), ".shard0of2");
  EXPECT_EQ(shard_suffix(3, 8), ".shard3of8");
}

// --- CLI protocol ------------------------------------------------------

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  for (auto& a : args) out.push_back(a.data());
  return out;
}

TEST(ShardArgsParse, DriverFormAndPassthrough) {
  std::vector<std::string> args = {"bench", "--foo", "--shards", "4",
                                   "bar"};
  auto argv = argv_of(args);
  const ShardArgs a =
      parse_shard_args(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(a.shards, 4u);
  EXPECT_FALSE(a.is_worker);
  EXPECT_FALSE(a.warm_only);
  ASSERT_EQ(a.passthrough.size(), 2u);
  EXPECT_EQ(a.passthrough[0], "--foo");
  EXPECT_EQ(a.passthrough[1], "bar");
}

TEST(ShardArgsParse, WorkerFormWithEquals) {
  std::vector<std::string> args = {"bench", "--shard=1/3",
                                   "--shard-staging=/tmp/x", "--warm-only"};
  auto argv = argv_of(args);
  const ShardArgs a =
      parse_shard_args(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(a.is_worker);
  EXPECT_EQ(a.worker_index, 1u);
  EXPECT_EQ(a.worker_count, 3u);
  EXPECT_EQ(a.staging, fs::path("/tmp/x"));
  EXPECT_TRUE(a.warm_only);
}

TEST(ShardArgsParse, MalformedInputsThrow) {
  const std::vector<std::vector<std::string>> bad = {
      {"bench", "--shards"},          // missing value
      {"bench", "--shards", "0"},     // zero shards
      {"bench", "--shards", "two"},   // not a number
      {"bench", "--shard", "3"},      // no k/K
      {"bench", "--shard", "3/3",     // k >= K
       "--shard-staging", "/tmp/x"},
      {"bench", "--shard", "0/2"},    // worker without staging
  };
  for (auto args : bad) {
    auto argv = argv_of(args);
    EXPECT_THROW(parse_shard_args(static_cast<int>(argv.size()), argv.data()),
                 std::runtime_error)
        << args[1];
  }
}

// --- metric dump parse + merge ----------------------------------------

TEST(MetricMerge, ParseRoundTripsNastyKeys) {
  std::vector<Sample> in(3);
  in[0].key = "he said \"hi\",\\back\\slash";
  in[0].kind = Kind::Counter;
  in[0].value = 9;
  in[1].key = "line\nbreak\tand\x01" "ctl";
  in[1].kind = Kind::Gauge;
  in[1].gauge_value = 2.5;
  in[2].key = "attack/ead b=0.1 k=40/step";
  in[2].kind = Kind::Timer;
  in[2].count = 3;
  in[2].total_ns = 90;
  in[2].min_ns = 10;
  in[2].max_ns = 50;

  const auto out = parse_metrics_json(obs::samples_to_json(in));
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].key, in[i].key) << i;
    EXPECT_EQ(out[i].kind, in[i].kind) << i;
    EXPECT_EQ(out[i].value, in[i].value) << i;
    EXPECT_EQ(out[i].gauge_value, in[i].gauge_value) << i;
    EXPECT_EQ(out[i].count, in[i].count) << i;
    EXPECT_EQ(out[i].total_ns, in[i].total_ns) << i;
    EXPECT_EQ(out[i].min_ns, in[i].min_ns) << i;
    EXPECT_EQ(out[i].max_ns, in[i].max_ns) << i;
  }
}

TEST(MetricMerge, ParseRejectsGarbage) {
  EXPECT_THROW(parse_metrics_json("not json at all"), std::runtime_error);
}

Sample counter_sample(const std::string& key, std::uint64_t v) {
  Sample s;
  s.key = key;
  s.kind = Kind::Counter;
  s.value = v;
  return s;
}

Sample gauge_sample(const std::string& key, double v) {
  Sample s;
  s.key = key;
  s.kind = Kind::Gauge;
  s.gauge_value = v;
  return s;
}

Sample timer_sample(const std::string& key, std::uint64_t count,
                    std::uint64_t total, std::uint64_t mn, std::uint64_t mx) {
  Sample s;
  s.key = key;
  s.kind = Kind::Timer;
  s.count = count;
  s.total_ns = total;
  s.min_ns = mn;
  s.max_ns = mx;
  return s;
}

TEST(MetricMerge, CountersSumGaugesMaxTimersCombine) {
  // Three shards with overlapping keys; shard 1 has an idle timer
  // (count 0, min 0) that must not poison the merged minimum.
  const std::vector<std::vector<Sample>> parts = {
      {counter_sample("img", 3), gauge_sample("peak", 1.5),
       timer_sample("step", 2, 30, 10, 20)},
      {counter_sample("extra", 7), counter_sample("img", 2),
       gauge_sample("peak", 0.5), timer_sample("step", 0, 0, 0, 0)},
      {timer_sample("step", 1, 5, 5, 5)},
  };
  const auto merged = merge_metric_samples(parts);
  ASSERT_EQ(merged.size(), 4u);
  // Stable order: counters (key-sorted), gauges, timers.
  EXPECT_EQ(merged[0].key, "extra");
  EXPECT_EQ(merged[0].value, 7u);
  EXPECT_EQ(merged[1].key, "img");
  EXPECT_EQ(merged[1].value, 5u);
  EXPECT_EQ(merged[2].key, "peak");
  EXPECT_EQ(merged[2].gauge_value, 1.5);
  EXPECT_EQ(merged[3].key, "step");
  EXPECT_EQ(merged[3].count, 3u);
  EXPECT_EQ(merged[3].total_ns, 35u);
  EXPECT_EQ(merged[3].min_ns, 5u);
  EXPECT_EQ(merged[3].max_ns, 20u);
}

TEST(MetricMerge, MergedDumpReEmitsByteCompatible) {
  // A merge of a single part must re-serialize to exactly the bytes a
  // worker would have written for the same registry state.
  obs::MetricsRegistry reg;
  reg.counter("a/c").add(4);
  reg.gauge("b/g").set(0.25);
  reg.timer("c/t").record_ns(7);
  const auto snap = reg.snapshot();
  EXPECT_EQ(obs::samples_to_json(merge_metric_samples({snap})),
            obs::samples_to_json(snap));
}

// --- attack-result slice/merge ----------------------------------------

TEST(AttackSliceMerge, ShardSlicesMergeBackBitwise) {
  const auto full = sim_fixture();
  for (const std::size_t count : {1u, 2u, 3u, 5u}) {
    std::vector<attacks::AttackResult> parts;
    for (std::size_t k = 0; k < count; ++k) {
      parts.push_back(
          slice_attack_result(full, shard_range(full.success.size(), k,
                                                count)));
    }
    expect_result_eq(merge_attack_results(parts), full);
  }
}

TEST(AttackSliceMerge, SliceKeepsRowContents) {
  const auto full = sim_fixture();
  const auto s = slice_attack_result(full, {2, 4});
  ASSERT_EQ(s.success.size(), 2u);
  EXPECT_EQ(s.adversarial.shape()[0], 2u);
  EXPECT_EQ(s.l1[0], full.l1[2]);
  EXPECT_EQ(s.linf[1], full.linf[3]);
  const std::size_t row = full.adversarial.numel() / 5;
  for (std::size_t i = 0; i < 2 * row; ++i) {
    EXPECT_EQ(s.adversarial[i], full.adversarial[2 * row + i]);
  }
}

TEST(AttackSliceMerge, ArtifactGroupsMergeAndIncompleteOnesSurvive) {
  const auto dir = fresh_temp_dir("adv_shard_artifacts");
  const auto full = sim_fixture();
  for (std::size_t k = 0; k < 2; ++k) {
    save_attack_result(
        dir / ("atk_sim" + shard_suffix(k, 2) + ".bin"),
        slice_attack_result(full, shard_range(5, k, 2)));
  }
  // An incomplete group (its shard 1 died) must be skipped, not merged.
  save_attack_result(dir / ("atk_dead" + shard_suffix(0, 2) + ".bin"),
                     slice_attack_result(full, shard_range(5, 0, 2)));

  EXPECT_EQ(merge_shard_artifacts(dir, 2), 1u);
  expect_result_eq(load_attack_result(dir / "atk_sim.bin"), full);
  EXPECT_FALSE(fs::exists(dir / "atk_sim.shard0of2.bin"));
  EXPECT_FALSE(fs::exists(dir / "atk_sim.shard1of2.bin"));
  EXPECT_FALSE(fs::exists(dir / "atk_dead.bin"));
  EXPECT_TRUE(fs::exists(dir / "atk_dead.shard0of2.bin"));
  fs::remove_all(dir);
}

// --- sharded ModelZoo vs unsharded: bitwise identity ------------------

ScaleConfig tiny_config(const fs::path& cache) {
  ScaleConfig cfg;
  cfg.train_count = 48;
  cfg.val_count = 16;
  cfg.test_count = 32;
  cfg.classifier_epochs = 1;
  cfg.ae_epochs = 1;
  cfg.batch_size = 16;
  cfg.attack_count = 6;
  cfg.attack_iterations = 4;
  cfg.binary_search_steps = 1;
  cfg.cache_dir = cache;
  return cfg;
}

TEST(ShardedZoo, TwoShardRecomputeMatchesUnshardedBitwise) {
  const auto cache = fresh_temp_dir("adv_shard_zoo");
  const auto cfg = tiny_config(cache);
  const auto id = DatasetId::Mnist;

  ModelZoo full_zoo(cfg);
  const auto before = [&] {
    std::vector<fs::path> v;
    for (const auto& e : fs::directory_iterator(cache)) v.push_back(e.path());
    return v;
  }();
  const auto r_full = full_zoo.fgsm(id, 0.08f, 3);
  const std::size_t n = r_full.success.size();
  ASSERT_GT(n, 1u);

  // Identify and remove the canonical attack artifact the unsharded run
  // just wrote, so the sharded zoos recompute instead of warm-starting.
  for (const auto& e : fs::directory_iterator(cache)) {
    if (std::find(before.begin(), before.end(), e.path()) == before.end()) {
      fs::remove(e.path());
    }
  }

  std::vector<attacks::AttackResult> parts;
  for (std::size_t k = 0; k < 2; ++k) {
    ModelZoo z(cfg);  // classifier/dataset are cache hits
    z.set_shard(k, 2);
    EXPECT_EQ(z.attack_set(id).labels.size(), shard_range(n, k, 2).size());
    parts.push_back(z.fgsm(id, 0.08f, 3));
  }
  expect_result_eq(merge_attack_results(parts), r_full);
  fs::remove_all(cache);
}

TEST(ShardedZoo, WarmStartsFromCanonicalArtifactBySlicing) {
  const auto cache = fresh_temp_dir("adv_shard_zoo_warm");
  const auto cfg = tiny_config(cache);
  const auto id = DatasetId::Mnist;

  const auto rule = attacks::DecisionRule::EN;

  ModelZoo full_zoo(cfg);
  const auto r_full = full_zoo.fgsm(id, 0.08f, 3);
  const auto e_full = full_zoo.ead(id, 0.01f, 0.0f, rule);
  const std::size_t n = r_full.success.size();
  const IndexRange slice = shard_range(n, 1, 2);

  // With the canonical artifacts in the shared cache, a sharded zoo must
  // serve its slices from them (and persist the shard pieces)
  // byte-for-byte, without running any optimization.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& ead_runs = obs::MetricsRegistry::global().counter("attack/ead/runs");
  const std::uint64_t ead_runs_before = ead_runs.value();
  ModelZoo z(cfg);
  z.set_shard(1, 2);
  expect_result_eq(z.fgsm(id, 0.08f, 3), slice_attack_result(r_full, slice));
  expect_result_eq(z.ead(id, 0.01f, 0.0f, rule),
                   slice_attack_result(e_full, slice));
  EXPECT_EQ(ead_runs.value(), ead_runs_before);
  obs::set_enabled(was_enabled);

  std::size_t pieces = 0;
  for (const auto& e : fs::directory_iterator(cache)) {
    if (e.path().filename().string().find(".shard1of2.bin") !=
        std::string::npos) {
      ++pieces;
    }
  }
  EXPECT_EQ(pieces, 2u);  // fgsm + ead
  fs::remove_all(cache);
}

TEST(ShardedZoo, SetShardValidates) {
  const auto cache = fresh_temp_dir("adv_shard_zoo_val");
  ModelZoo zoo(tiny_config(cache));
  EXPECT_THROW(zoo.set_shard(2, 2), std::invalid_argument);
  fs::remove_all(cache);
}

// --- driver end to end -------------------------------------------------

fs::path self_exe() { return fs::read_symlink("/proc/self/exe"); }

DriverOptions sim_driver_options(const fs::path& root, std::size_t shards) {
  DriverOptions o;
  o.bench_name = "shard_sim";
  o.shards = shards;
  o.command = {self_exe().string(), "--shard-sim"};
  o.staging_root = root / "staging";
  o.cache_dir = root / "cache";
  fs::create_directories(o.cache_dir);
  return o;
}

TEST(ShardDriver, FanOutMergesArtifactsAndMetricDumps) {
  const auto root = fresh_temp_dir("adv_shard_driver_ok");
  ScopedChdir cd(root / "cwd");
  EnvGuard cache_guard("SHARD_TEST_CACHE");
  EnvGuard threads_guard("ADV_THREADS");
  const auto opts = sim_driver_options(root, 2);
  ::setenv("SHARD_TEST_CACHE", opts.cache_dir.c_str(), 1);
  // An explicit pin must reach the workers untouched (the sim reports
  // the value it saw as a gauge).
  ::setenv("ADV_THREADS", "1", 1);

  const ShardReport rep = run_shard_driver(opts);
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.launched, 2u);
  EXPECT_EQ(rep.retried, 0u);
  EXPECT_EQ(rep.failed, 0u);
  ASSERT_EQ(rep.shards.size(), 2u);
  for (const auto& s : rep.shards) {
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.attempts, 1u);
  }
  EXPECT_GT(rep.total_cpu_ns + rep.phase_wall_ns, 0u);

  // Artifact pieces merged into the canonical file.
  expect_result_eq(load_attack_result(opts.cache_dir / "atk_sim.bin"),
                   sim_fixture());

  // Per-shard BENCH dumps merged and published at the cwd.
  const auto merged = parse_metrics_json(slurp("BENCH_sim.json"));
  std::uint64_t images = 0;
  double threads_seen = 0.0;
  std::uint64_t steps = 0;
  for (const auto& s : merged) {
    if (s.key == "sim/images") images = s.value;
    if (s.key == "sim/threads") threads_seen = s.gauge_value;
    if (s.key == "sim/step") steps = s.count;
  }
  EXPECT_EQ(images, 5u);       // 3 + 2 across the two slices
  EXPECT_EQ(threads_seen, 1.0);  // the explicit ADV_THREADS pin won
  EXPECT_EQ(steps, 5u);

  // The shard bench report exists and names the phase.
  const std::string bench = slurp("BENCH_shard.json");
  EXPECT_NE(bench.find("\"bench\": \"shard_sim\""), std::string::npos);
  EXPECT_NE(bench.find("\"shards\": 2"), std::string::npos);
  EXPECT_NE(bench.find("\"speedup\""), std::string::npos);
}

TEST(ShardDriver, CrashedWorkerIsRetriedThenReported) {
  const auto root = fresh_temp_dir("adv_shard_driver_crash");
  ScopedChdir cd(root / "cwd");
  EnvGuard cache_guard("SHARD_TEST_CACHE");
  EnvGuard fault_guard("ADV_FAULT");
  const auto opts = sim_driver_options(root, 2);
  ::setenv("SHARD_TEST_CACHE", opts.cache_dir.c_str(), 1);
  // Workers inherit the environment; shard 1 hits its failpoint on every
  // attempt and exits 42 before doing any work.
  ::setenv("ADV_FAULT", "shard.worker.1:fail", 1);

  const std::uint64_t backoff0 =
      obs::MetricsRegistry::global().counter("shard/retry_backoff_ms").value();
  const ShardReport rep = run_shard_driver(opts);
  EXPECT_FALSE(rep.all_ok());
  EXPECT_EQ(rep.launched, 3u);  // 2 initial spawns + 1 retry
  EXPECT_EQ(rep.retried, 1u);
  EXPECT_EQ(rep.failed, 1u);
  ASSERT_EQ(rep.shards.size(), 2u);
  EXPECT_TRUE(rep.shards[0].ok());
  EXPECT_EQ(rep.shards[1].exit_status, 42);
  EXPECT_EQ(rep.shards[1].attempts, 2u);
  // The one relaunch slept its deterministic backoff and recorded it.
  EXPECT_EQ(obs::MetricsRegistry::global()
                    .counter("shard/retry_backoff_ms")
                    .value() -
                backoff0,
            retry_backoff_ms(1, 0, opts.retry_base_ms, opts.retry_cap_ms));

  // The incomplete artifact group is left unmerged: shard 0's piece
  // survives for inspection and no canonical file appears.
  EXPECT_FALSE(fs::exists(opts.cache_dir / "atk_sim.bin"));
  EXPECT_TRUE(fs::exists(opts.cache_dir / "atk_sim.shard0of2.bin"));
}

TEST(ShardDriver, FlakyWorkerSucceedsOnRetry) {
  const auto root = fresh_temp_dir("adv_shard_driver_flaky");
  ScopedChdir cd(root / "cwd");
  EnvGuard cache_guard("SHARD_TEST_CACHE");
  EnvGuard flaky_guard("SHARD_TEST_FLAKY");
  const auto opts = sim_driver_options(root, 2);
  ::setenv("SHARD_TEST_CACHE", opts.cache_dir.c_str(), 1);
  // First attempt of shard 0 drops a marker and exits 7; the retry sees
  // the marker and completes normally.
  const fs::path marker = root / "flaky_marker";
  ::setenv("SHARD_TEST_FLAKY", marker.c_str(), 1);

  const ShardReport rep = run_shard_driver(opts);
  EXPECT_TRUE(rep.all_ok());
  EXPECT_EQ(rep.retried, 1u);
  EXPECT_EQ(rep.failed, 0u);
  ASSERT_EQ(rep.shards.size(), 2u);
  EXPECT_EQ(rep.shards[0].attempts, 2u);
  EXPECT_EQ(rep.shards[1].attempts, 1u);
  // Despite the crash, the full merge still lands.
  expect_result_eq(load_attack_result(opts.cache_dir / "atk_sim.bin"),
                   sim_fixture());
}

TEST(ShardDriver, RunCommandDecodesExitStatus) {
  EXPECT_EQ(run_command({"/bin/true"}), 0);
  EXPECT_EQ(run_command({"/bin/false"}), 1);
  EXPECT_EQ(run_command({"/no/such/binary"}), 127);
}

// --- relaunch backoff schedule ----------------------------------------

TEST(ShardDriver, BackoffScheduleIsDeterministicAndCapped) {
  // Pure function: same inputs, same output, across calls and processes.
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::size_t a = 0; a < 8; ++a) {
      EXPECT_EQ(retry_backoff_ms(k, a, 25, 2000),
                retry_backoff_ms(k, a, 25, 2000));
    }
  }
  // Equal-jitter shape: every value sits in [cap/2, cap] where the cap
  // doubles per attempt until retry_cap_ms clamps it.
  for (std::size_t a = 0; a < 12; ++a) {
    const std::uint64_t cap = std::min<std::uint64_t>(25ull << a, 2000);
    const std::uint64_t v = retry_backoff_ms(0, a, 25, 2000);
    EXPECT_GE(v, cap / 2) << "attempt " << a;
    EXPECT_LE(v, cap) << "attempt " << a;
  }
  // Huge attempt numbers must not overflow past the cap.
  EXPECT_LE(retry_backoff_ms(3, 500, 25, 2000), 2000u);
  // Crashed siblings get distinct pauses (no thundering relaunch).
  EXPECT_NE(retry_backoff_ms(0, 0, 1000, 100000),
            retry_backoff_ms(1, 0, 1000, 100000));
  // Disabled backoff stays disabled.
  EXPECT_EQ(retry_backoff_ms(0, 3, 0, 2000), 0u);
}

TEST(ShardDriver, MaxRetriesGrantsExtraAttempts) {
  const auto root = fresh_temp_dir("adv_shard_driver_budget");
  ScopedChdir cd(root / "cwd");
  EnvGuard cache_guard("SHARD_TEST_CACHE");
  EnvGuard fault_guard("ADV_FAULT");
  auto opts = sim_driver_options(root, 2);
  opts.max_retries = 3;
  opts.retry_base_ms = 1;  // keep the test fast; schedule still recorded
  opts.retry_cap_ms = 4;
  ::setenv("SHARD_TEST_CACHE", opts.cache_dir.c_str(), 1);
  ::setenv("ADV_FAULT", "shard.worker.1:fail", 1);

  const ShardReport rep = run_shard_driver(opts);
  EXPECT_FALSE(rep.all_ok());
  EXPECT_EQ(rep.launched, 5u);  // 2 initial + 3 relaunches of shard 1
  EXPECT_EQ(rep.retried, 3u);
  EXPECT_EQ(rep.failed, 1u);
  ASSERT_EQ(rep.shards.size(), 2u);
  EXPECT_EQ(rep.shards[1].attempts, 4u);
  EXPECT_TRUE(rep.shards[0].ok());
}

}  // namespace
}  // namespace adv::core

// --- shard worker simulator -------------------------------------------
//
// Mirrors what shard_main does for a real bench, minus the ModelZoo:
// honor the shard.worker failpoints, enter the staging dir, write this
// shard's artifact piece into the shared cache and a per-shard metric
// dump, then finalize (rename dumps to .shard<k>.json).
namespace {

int run_shard_sim(int argc, char** argv) {
  using namespace adv;
  namespace fs = std::filesystem;
  const core::ShardArgs args = core::parse_shard_args(argc, argv);
  if (fault::check("shard.worker") == fault::Action::Fail ||
      fault::check("shard.worker." + std::to_string(args.worker_index)) ==
          fault::Action::Fail) {
    std::fprintf(stderr, "shard-sim %zu: injected crash\n",
                 args.worker_index);
    return 42;
  }
  const char* cache = std::getenv("SHARD_TEST_CACHE");
  if (!cache) return 3;
  if (const char* marker = std::getenv("SHARD_TEST_FLAKY")) {
    if (args.worker_index == 0 && !fs::exists(marker)) {
      std::ofstream(marker) << "first attempt\n";
      return 7;
    }
  }

  core::ScaleConfig cfg;
  cfg.cache_dir = cache;
  core::enter_worker(args, cfg);

  attacks::AttackResult full;
  full.adversarial = Tensor({5, 1, 2, 2});
  for (std::size_t i = 0; i < full.adversarial.numel(); ++i) {
    full.adversarial[i] = 0.25f * static_cast<float>(i) - 1.0f;
  }
  full.success = {true, false, true, true, false};
  full.l1 = {1.0f, 0.0f, 3.0f, 4.0f, 0.0f};
  full.l2 = {0.5f, 0.0f, 1.5f, 2.0f, 0.0f};
  full.linf = {0.1f, 0.0f, 0.3f, 0.4f, 0.0f};
  const core::IndexRange range =
      core::shard_range(5, args.worker_index, args.worker_count);
  core::save_attack_result(
      cfg.cache_dir / ("atk_sim" +
                       core::shard_suffix(args.worker_index,
                                          args.worker_count) +
                       ".bin"),
      core::slice_attack_result(full, range));

  obs::MetricsRegistry reg;
  reg.counter("sim/images").add(range.size());
  const char* threads = std::getenv("ADV_THREADS");
  reg.gauge("sim/threads").set(threads ? std::atof(threads) : 0.0);
  obs::Timer& t = reg.timer("sim/step");
  for (std::size_t i = 0; i < range.size(); ++i) {
    t.record_ns(10 * (args.worker_index + 1));
  }
  std::ofstream("BENCH_sim.json") << obs::samples_to_json(reg.snapshot());

  core::finalize_worker(args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--shard-sim") {
      return run_shard_sim(argc, argv);
    }
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
