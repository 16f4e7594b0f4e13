// Active-set attack engine tests: row compaction must be bitwise
// invisible on every attack, early abort must never un-succeed a row, and
// the Workspace arena must hand out correctly-sized (and, when requested,
// zeroed) buffers under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "attack_test_util.hpp"
#include "attacks/attack.hpp"
#include "attacks/engine.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"
#include "nn/structural.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"
#include "tensor/workspace.hpp"

namespace adv::attacks {
namespace {

/// Small conv classifier over 8x8 single-channel images, 4 classes —
/// exercises Conv2d, pooling, both cached-input and cached-output
/// activations, and Linear in every engine pass.
nn::Sequential conv_classifier(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential m;
  m.emplace<nn::Conv2d>(nn::Conv2d::same(1, 4), rng);
  m.emplace<nn::ReLU>();
  m.emplace<nn::MaxPool2d>(2);
  m.emplace<nn::Flatten>();
  m.emplace<nn::Linear>(4 * 4 * 4, 8, rng);
  m.emplace<nn::Tanh>();
  m.emplace<nn::Linear>(8, 4, rng);
  // Scale the head so logits have an attackable range.
  scale_inplace(*m.parameters()[4], 4.0f);
  return m;
}

std::pair<Tensor, std::vector<int>> labeled_batch(nn::Sequential& m,
                                                  std::uint64_t seed,
                                                  std::size_t n) {
  Rng rng(seed);
  Tensor x({n, 1, 8, 8});
  fill_uniform(x, rng, 0.1f, 0.9f);
  const Tensor logits = m.forward(x, nn::Mode::Infer);
  std::vector<int> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = static_cast<int>(argmax_row(logits, i));
  }
  return {x, labels};
}

void expect_bitwise_equal(const AttackResult& a, const AttackResult& b) {
  ASSERT_EQ(a.adversarial.numel(), b.adversarial.numel());
  EXPECT_EQ(0, std::memcmp(a.adversarial.data(), b.adversarial.data(),
                           a.adversarial.numel() * sizeof(float)));
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.l1, b.l1);
  EXPECT_EQ(a.l2, b.l2);
  EXPECT_EQ(a.linf, b.linf);
}

// --- ActiveSet / PlateauDetector units ------------------------------------

TEST(ActiveSet, RetireKeepsIndicesSortedAndFlagsConsistent) {
  ActiveSet rows(5);
  EXPECT_TRUE(rows.all_active());
  rows.retire(3);
  rows.retire(0);
  rows.retire(3);  // repeat is a no-op
  EXPECT_EQ(rows.active_count(), 3u);
  EXPECT_EQ(rows.indices(), (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_FALSE(rows.active(0));
  EXPECT_TRUE(rows.active(1));
  rows.retire(1);
  rows.retire(2);
  rows.retire(4);
  EXPECT_TRUE(rows.none_active());
  rows.reset();
  EXPECT_TRUE(rows.all_active());
}

TEST(PlateauDetector, RetiresAfterWindowStaleObservations) {
  PlateauDetector det(1, /*window=*/3, /*rel_tol=*/1e-3f);
  EXPECT_FALSE(det.observe(0, 10.0f));  // first value always improves
  EXPECT_FALSE(det.observe(0, 5.0f));   // improvement resets
  EXPECT_FALSE(det.observe(0, 5.0f));   // stale 1
  EXPECT_FALSE(det.observe(0, 4.9999f));  // within rel_tol: stale 2
  EXPECT_TRUE(det.observe(0, 5.0f));    // stale 3 -> plateau
  det.reset();
  EXPECT_FALSE(det.observe(0, 5.0f));
}

TEST(PlateauDetector, WindowZeroNeverRetires) {
  PlateauDetector det(1, 0, 1e-3f);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(det.observe(0, 1.0f));
}

TEST(GatherScatter, RoundTripsRowsInOrder) {
  Tensor batch = Tensor::from_data(Shape({4, 2}),
                                   {0, 1, 10, 11, 20, 21, 30, 31});
  const std::vector<std::size_t> idx{1, 3};
  const Tensor sub = gather_rows(batch, idx);
  ASSERT_EQ(sub.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(sub[0], 10.0f);
  EXPECT_FLOAT_EQ(sub[3], 31.0f);
  Tensor modified = sub;
  modified[0] = -1.0f;
  modified[3] = -2.0f;
  scatter_rows(modified, idx, batch);
  EXPECT_FLOAT_EQ(batch[2], -1.0f);   // row 1 updated
  EXPECT_FLOAT_EQ(batch[7], -2.0f);   // row 3 updated
  EXPECT_FLOAT_EQ(batch[0], 0.0f);    // row 0 untouched
}

// --- compaction is bitwise invisible, attack by attack --------------------

TEST(Compaction, EadBitwiseIdentical) {
  EadConfig cfg;
  cfg.beta = 0.01f;
  cfg.kappa = 1.0f;
  cfg.iterations = 60;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 0.5f;
  cfg.use_fista = true;
  // Early abort on in BOTH arms so rows actually retire and the compacted
  // arm runs genuinely smaller sub-batches.
  cfg.abort_early_window = 4;
  cfg.abort_early_rel_tol = 1e-3f;

  nn::Sequential m1 = conv_classifier(7);
  nn::Sequential m2 = conv_classifier(7);
  auto [x, labels] = labeled_batch(m1, 8, 6);

  cfg.compact = true;
  const AttackResult fast = run_oblivious(EadAttack(cfg), m1, x, labels);
  cfg.compact = false;
  const AttackResult dense = run_oblivious(EadAttack(cfg), m2, x, labels);
  expect_bitwise_equal(fast, dense);
}

TEST(Compaction, CwL2BitwiseIdentical) {
  EadConfig cfg;
  cfg.kappa = 0.5f;
  cfg.iterations = 50;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 0.5f;
  cfg.abort_early_window = 4;
  cfg.abort_early_rel_tol = 1e-3f;

  nn::Sequential m1 = conv_classifier(17);
  nn::Sequential m2 = conv_classifier(17);
  auto [x, labels] = labeled_batch(m1, 18, 6);

  cfg.compact = true;
  const AttackResult fast = run_oblivious(CwL2Attack(cfg), m1, x, labels);
  cfg.compact = false;
  const AttackResult dense = run_oblivious(CwL2Attack(cfg), m2, x, labels);
  expect_bitwise_equal(fast, dense);
}

TEST(Compaction, IfgsmBitwiseIdentical) {
  FgsmConfig cfg;
  cfg.epsilon = 0.08f;
  cfg.iterations = 12;

  nn::Sequential m1 = conv_classifier(27);
  nn::Sequential m2 = conv_classifier(27);
  auto [x, labels] = labeled_batch(m1, 28, 8);

  cfg.compact = true;
  const AttackResult fast = run_oblivious(FgsmAttack(cfg), m1, x, labels);
  cfg.compact = false;
  const AttackResult dense = run_oblivious(FgsmAttack(cfg), m2, x, labels);
  expect_bitwise_equal(fast, dense);
}

TEST(Compaction, DeepFoolBitwiseIdentical) {
  DeepFoolConfig cfg;
  cfg.max_iterations = 25;

  nn::Sequential m1 = conv_classifier(37);
  nn::Sequential m2 = conv_classifier(37);
  auto [x, labels] = labeled_batch(m1, 38, 8);

  cfg.compact = true;
  const AttackResult fast =
      run_oblivious(DeepFoolAttack(cfg), m1, x, labels);
  cfg.compact = false;
  const AttackResult dense =
      run_oblivious(DeepFoolAttack(cfg), m2, x, labels);
  expect_bitwise_equal(fast, dense);
}

// --- early abort ----------------------------------------------------------

TEST(EarlyAbort, NeverFlipsASuccessToFailure) {
  EadConfig cfg;
  cfg.beta = 0.01f;
  cfg.kappa = 0.5f;
  cfg.iterations = 80;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 0.5f;

  nn::Sequential m1 = conv_classifier(47);
  nn::Sequential m2 = conv_classifier(47);
  auto [x, labels] = labeled_batch(m1, 48, 6);

  cfg.abort_early_window = 0;
  const AttackResult full = run_oblivious(EadAttack(cfg), m1, x, labels);
  cfg.abort_early_window = 3;
  cfg.abort_early_rel_tol = 1e-3f;
  const AttackResult aborted =
      run_oblivious(EadAttack(cfg), m2, x, labels);

  // The aborted run visits a prefix of the full run's iterates per row, so
  // any success it reports was also reported by the full run.
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (aborted.success[i]) {
      EXPECT_TRUE(full.success[i]) << "row " << i;
    }
  }
}

TEST(EarlyAbort, AbortKnobsChangeTheCacheTag) {
  // Abort changes results, so it must be part of the cache identity;
  // compaction must NOT be (bitwise-neutral, cached artifacts stay valid).
  EadConfig a;
  EadConfig b = a;
  b.abort_early_window = 5;
  EadConfig c = a;
  c.compact = !c.compact;
  // Constructed inline to keep this test free of the registry.
  const std::string ta = EadAttack(a).tag();
  const std::string tb = EadAttack(b).tag();
  const std::string tc = EadAttack(c).tag();
  EXPECT_NE(ta, tb);
  EXPECT_EQ(ta, tc);
}

// --- EadAttack::run vs run_rules (single-rule extraction) ----------------

TEST(EadMulti, SingleRuleMatchesMultiRuleZero) {
  EadConfig cfg;
  cfg.beta = 0.02f;
  cfg.kappa = 0.5f;
  cfg.iterations = 40;
  cfg.binary_search_steps = 2;
  cfg.initial_c = 0.5f;
  cfg.rule = DecisionRule::L1;

  nn::Sequential m1 = conv_classifier(57);
  nn::Sequential m2 = conv_classifier(57);
  auto [x, labels] = labeled_batch(m1, 58, 4);

  const AttackResult single = run_oblivious(EadAttack(cfg), m1, x, labels);
  const DecisionRule rules[2] = {DecisionRule::L1, DecisionRule::EN};
  ObliviousTarget target(m2);
  const std::vector<AttackResult> multi =
      EadAttack(cfg).run_rules(target, x, labels, rules);
  ASSERT_EQ(multi.size(), 2u);
  expect_bitwise_equal(single, multi[0]);
}

// --- workspace ------------------------------------------------------------

TEST(WorkspaceArena, RecyclesBuffersAndTracksStats) {
  Workspace ws;
  Tensor a = ws.acquire(Shape({2, 3}));
  EXPECT_EQ(a.shape(), Shape({2, 3}));
  a.fill(7.0f);
  ws.release(std::move(a));
  EXPECT_EQ(ws.pooled_buffers(), 1u);
  EXPECT_EQ(ws.pooled_bytes(), 6u * sizeof(float));

  // Pooling is keyed on the full dims vector: a [3, 2] request must NOT
  // be served by the parked [2, 3] buffer even though numel matches.
  Tensor b = ws.acquire(Shape({3, 2}));
  EXPECT_EQ(b.shape(), Shape({3, 2}));
  EXPECT_EQ(ws.reuses(), 0u);
  EXPECT_EQ(ws.misses(), 2u);
  ws.release(std::move(b));
  EXPECT_EQ(ws.pooled_buffers(), 2u);

  // A same-shape request is a reuse and keeps the old bytes when not
  // zeroed.
  Tensor c = ws.acquire(Shape({2, 3}));
  EXPECT_EQ(ws.reuses(), 1u);
  EXPECT_FLOAT_EQ(c[0], 7.0f);
  c.fill(9.0f);
  ws.release(std::move(c));

  // zeroed=true must scrub recycled contents.
  Tensor z = ws.acquire(Shape({2, 3}), /*zeroed=*/true);
  EXPECT_EQ(ws.reuses(), 2u);
  for (std::size_t i = 0; i < z.numel(); ++i) {
    ASSERT_FLOAT_EQ(z[i], 0.0f) << i;
  }
}

TEST(WorkspaceArena, TrimFreesLargestShapesFirstAndResetsHighWater) {
  Workspace ws;
  // Park one big and two small buffers: 1000, 10, 10 floats.
  ws.release(ws.acquire(Shape({1000})));
  ws.release(ws.acquire(Shape({10})));
  ws.release(ws.acquire(Shape({2, 5})));
  const std::uint64_t full = (1000 + 10 + 10) * sizeof(float);
  EXPECT_EQ(ws.pooled_bytes(), full);
  EXPECT_EQ(ws.high_water_bytes(), full);

  // Trimming to half the high-water mark must evict the big buffer (the
  // largest shape goes first) and keep both small ones.
  ws.trim(0.5);
  EXPECT_EQ(ws.pooled_bytes(), 20u * sizeof(float));
  EXPECT_EQ(ws.pooled_buffers(), 2u);
  // ... and the mark resets to the trimmed level.
  EXPECT_EQ(ws.high_water_bytes(), 20u * sizeof(float));

  // trim(0) empties the pool; subsequent acquires still work (plain
  // allocation miss).
  ws.trim(0.0);
  EXPECT_EQ(ws.pooled_buffers(), 0u);
  EXPECT_EQ(ws.pooled_bytes(), 0u);
  Tensor t = ws.acquire(Shape({10}), /*zeroed=*/true);
  for (std::size_t i = 0; i < t.numel(); ++i) ASSERT_FLOAT_EQ(t[i], 0.0f);
}

TEST(WorkspaceArena, PerShapePoolIsCapped) {
  Workspace ws;
  std::vector<Tensor> live;
  for (int i = 0; i < 40; ++i) live.push_back(ws.acquire(Shape({4})));
  for (auto& t : live) ws.release(std::move(t));
  // Only kMaxPooledPerShape (16) buffers of one shape may park; the rest
  // are dropped to the allocator.
  EXPECT_EQ(ws.pooled_buffers(), 16u);
}

TEST(WorkspaceArena, DisabledMeansFreshZeroedAllocations) {
  Workspace ws;
  ws.set_enabled(false);
  Tensor a = ws.acquire(Shape({4}));
  a.fill(3.0f);
  ws.release(std::move(a));  // dropped, not pooled
  EXPECT_EQ(ws.pooled_buffers(), 0u);
  Tensor b = ws.acquire(Shape({4}));
  EXPECT_EQ(ws.reuses(), 0u);
  for (std::size_t i = 0; i < b.numel(); ++i) {
    ASSERT_FLOAT_EQ(b[i], 0.0f);
  }
}

TEST(WorkspaceArena, ConcurrentAcquireReleaseIsSafeAndCorrect) {
  Workspace ws;
  auto& pool = ThreadPool::global();
  std::atomic<int> failures{0};
  // Hammer the arena from every pool worker: each task acquires a zeroed
  // buffer (must be all-zero), stamps it, and releases it back.
  pool.parallel_for(0, 256, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t t = b0; t < b1; ++t) {
      const Shape shape({(t % 7) + 1, 5});
      Tensor buf = ws.acquire(shape, /*zeroed=*/true);
      if (buf.shape() != shape) failures.fetch_add(1);
      for (std::size_t i = 0; i < buf.numel(); ++i) {
        if (buf[i] != 0.0f) {
          failures.fetch_add(1);
          break;
        }
      }
      buf.fill(static_cast<float>(t));
      ws.release(std::move(buf));
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(ws.reuses() + ws.misses(), 0u);
}

TEST(WorkspaceArena, ModelOutputsIdenticalWithWorkspaceOnAndOff) {
  nn::Sequential m1 = conv_classifier(67);
  nn::Sequential m2 = conv_classifier(67);
  m2.set_workspace_enabled(false);
  Rng rng(68);
  Tensor x({5, 1, 8, 8});
  fill_uniform(x, rng, 0.0f, 1.0f);

  for (int pass = 0; pass < 3; ++pass) {
    const Tensor y1 = m1.forward(x, nn::Mode::Eval);
    const Tensor y2 = m2.forward(x, nn::Mode::Eval);
    ASSERT_EQ(0, std::memcmp(y1.data(), y2.data(),
                             y1.numel() * sizeof(float)));
    Tensor seed(y1.shape());
    seed.fill(0.25f);
    const Tensor g1 = m1.backward(seed);
    const Tensor g2 = m2.backward(seed);
    ASSERT_EQ(0, std::memcmp(g1.data(), g2.data(),
                             g1.numel() * sizeof(float)));
  }
  EXPECT_GT(m1.workspace().reuses(), 0u);
  EXPECT_EQ(m2.workspace().reuses(), 0u);
}

TEST(WorkspaceArena, DirectConvForwardDropsHighWaterVsIm2col) {
  // The direct-convolution forward needs only the padded-input scratch —
  // it never materializes the im2col column matrix — so a conv-heavy
  // forward pass must leave a strictly lower workspace high-water mark
  // than the same model forced onto the im2col fallback.
  auto build = [](bool force_im2col) {
    Rng rng(91);
    nn::Sequential m;
    nn::Conv2d& c1 = m.emplace<nn::Conv2d>(nn::Conv2d::same(1, 8), rng);
    m.emplace<nn::ReLU>();
    nn::Conv2d& c2 = m.emplace<nn::Conv2d>(nn::Conv2d::same(8, 8), rng);
    m.emplace<nn::Sigmoid>();
    c1.set_force_im2col(force_im2col);
    c2.set_force_im2col(force_im2col);
    return m;
  };
  nn::Sequential direct = build(false);
  nn::Sequential im2col = build(true);
  Rng rng(92);
  Tensor x({4, 1, 8, 8});
  fill_uniform(x, rng, 0.0f, 1.0f);
  const Tensor yd = direct.forward(x, nn::Mode::Infer);
  const Tensor yi = im2col.forward(x, nn::Mode::Infer);
  ASSERT_EQ(0,
            std::memcmp(yd.data(), yi.data(), yd.numel() * sizeof(float)));
  EXPECT_GT(im2col.workspace().high_water_bytes(), 0u);
  EXPECT_LT(direct.workspace().high_water_bytes(),
            im2col.workspace().high_water_bytes());
}

TEST(WorkspaceArena, InferMatchesEvalForwardBitwise) {
  nn::Sequential m = conv_classifier(77);
  Rng rng(78);
  Tensor x({4, 1, 8, 8});
  fill_uniform(x, rng, 0.0f, 1.0f);
  const Tensor eval_out = m.forward(x, nn::Mode::Eval);
  const Tensor infer_out = m.forward(x, nn::Mode::Infer);
  ASSERT_EQ(0, std::memcmp(eval_out.data(), infer_out.data(),
                           eval_out.numel() * sizeof(float)));
}

}  // namespace
}  // namespace adv::attacks
