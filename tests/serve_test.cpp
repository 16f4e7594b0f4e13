// adv::serve battery: protocol encode/decode, micro-batching bitwise
// identity vs the serial path, fault containment + soak, and socket-level
// protocol robustness. Models are 1-pixel hand-computable stand-ins (the
// same style as magnet_test.cpp) so every test runs in milliseconds; the
// real-model end-to-end path is serve_bench's CI gate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "fault/failpoint.hpp"
#include "magnet/detector.hpp"
#include "magnet/pipeline.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/structural.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace adv::serve {
namespace {

using magnet::DefenseOutcome;
using magnet::DefenseScheme;
using magnet::MagNetPipeline;

// --- tiny hand-computable pipeline (cf. magnet_test.cpp) ----------------

std::shared_ptr<nn::Sequential> scaling_ae(float factor) {
  Rng rng(1);
  auto ae = std::make_shared<nn::Sequential>();
  ae->emplace<nn::Conv2d>(nn::Conv2dConfig{1, 1, 1, 1, 0}, rng);
  ae->parameters()[0]->fill(factor);
  ae->parameters()[1]->fill(0.0f);
  return ae;
}

std::shared_ptr<nn::Sequential> threshold_classifier(float w = 10.0f) {
  Rng rng(2);
  auto clf = std::make_shared<nn::Sequential>();
  clf->emplace<nn::Flatten>();
  auto& lin = clf->emplace<nn::Linear>(1, 2, rng);
  *lin.parameters()[0] = Tensor::from_data(Shape({1, 2}), {-w, w});
  *lin.parameters()[1] = Tensor::from_data(Shape({2}), {5.0f, -5.0f});
  return clf;
}

/// Full pipeline: one real ReconstructionDetector (AE halves the pixel,
/// so L1 score = 0.5|x|), a reformer on the same AE, and the threshold
/// classifier. All stages are row-independent and hand-computable.
std::shared_ptr<const MagNetPipeline> build_pipeline(
    bool workspace_enabled = true) {
  auto clf = threshold_classifier();
  auto ae = scaling_ae(0.5f);
  clf->set_workspace_enabled(workspace_enabled);
  ae->set_workspace_enabled(workspace_enabled);
  auto pipe = std::make_shared<MagNetPipeline>(clf);
  auto det = std::make_shared<magnet::ReconstructionDetector>(ae, 1);
  det->set_threshold(0.2f);  // fires when 0.5|x| > 0.2, i.e. x > 0.4
  pipe->add_detector(det);
  pipe->set_reformer(std::make_shared<magnet::Reformer>(ae));
  return pipe;
}

Tensor rows_tensor(std::size_t n, float base) {
  Tensor t({n, 1, 1, 1});
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = base + 0.01f * static_cast<float>(i);
  }
  return t;
}

bool outcomes_bitwise_equal(const DefenseOutcome& a, const DefenseOutcome& b) {
  if (a.rejected != b.rejected || a.predicted != b.predicted) return false;
  if (a.readings.size() != b.readings.size()) return false;
  for (std::size_t d = 0; d < a.readings.size(); ++d) {
    const auto& x = a.readings[d];
    const auto& y = b.readings[d];
    if (x.name != y.name) return false;
    if (std::memcmp(&x.threshold, &y.threshold, sizeof(float)) != 0) {
      return false;
    }
    if (x.scores.size() != y.scores.size()) return false;
    if (std::memcmp(x.scores.data(), y.scores.data(),
                    x.scores.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

std::filesystem::path test_socket_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::filesystem::temp_directory_path() /
         ("adv_srv_" + std::to_string(::getpid()) + "_" + info->name() +
          ".sock");
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::reset();
    if (!obs::enabled_pinned_by_env()) obs::set_enabled(true);
  }
  void TearDown() override { fault::reset(); }

  std::uint64_t counter_value(const std::string& key) {
    return obs::MetricsRegistry::global().counter(key).value();
  }
};

// --- protocol unit tests ------------------------------------------------

TEST_F(ServeTest, ClassifyRequestRoundTrips) {
  const Tensor batch = rows_tensor(3, 0.25f);
  const auto body =
      encode_classify_request(DefenseScheme::DetectorOnly, batch);
  const Request req = decode_request(body);
  EXPECT_EQ(req.type, MessageType::Classify);
  EXPECT_EQ(req.scheme, DefenseScheme::DetectorOnly);
  ASSERT_EQ(req.batch.shape(), batch.shape());
  EXPECT_EQ(std::memcmp(req.batch.data(), batch.data(),
                        batch.numel() * sizeof(float)),
            0);
}

TEST_F(ServeTest, QuantBitRoundTripsAndLegacyFramesDecodeFloat) {
  const Tensor batch = rows_tensor(2, 0.25f);
  // Marked frame: high bit set on the scheme byte, low bits intact.
  const auto marked = encode_classify_request(DefenseScheme::Full, batch,
                                              /*deadline_ms=*/0,
                                              /*quantized=*/true);
  const Request rq = decode_request(marked);
  EXPECT_TRUE(rq.quantized);
  EXPECT_EQ(rq.scheme, DefenseScheme::Full);
  // Unmarked frame — exactly what pre-quantization encoders emitted —
  // decodes as float execution (wire compatibility by construction).
  const Request rf =
      decode_request(encode_classify_request(DefenseScheme::Full, batch));
  EXPECT_FALSE(rf.quantized);
  EXPECT_EQ(rf.scheme, DefenseScheme::Full);
}

TEST_F(ServeTest, PingRequestRoundTrips) {
  const Request req = decode_request(encode_ping_request());
  EXPECT_EQ(req.type, MessageType::Ping);
}

TEST_F(ServeTest, ResponseRoundTripsReadingsBitwise) {
  DefenseOutcome out;
  out.rejected = {false, true};
  out.predicted = {1, 0};
  magnet::DetectorReading r;
  r.name = "recon_l1";
  r.threshold = 0.125f;
  r.scores = {0.1f, 0.75f};
  out.readings.push_back(r);
  const auto body = encode_ok_response(MessageType::Classify, out);
  const ClassifyResponse resp = decode_response(body);
  ASSERT_TRUE(resp.ok);
  EXPECT_TRUE(outcomes_bitwise_equal(resp.outcome, out));

  const ClassifyResponse err = decode_response(
      encode_error_response(MessageType::Classify, "kaboom"));
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.error, "kaboom");
}

TEST_F(ServeTest, DecodeRejectsMalformedBodies) {
  // Unknown message type.
  EXPECT_THROW(decode_request(std::vector<std::uint8_t>{9}), ProtocolError);
  // Trailing bytes after a ping.
  EXPECT_THROW(decode_request(std::vector<std::uint8_t>{2, 0}),
               ProtocolError);
  // Bad scheme.
  auto body = encode_classify_request(DefenseScheme::Full, rows_tensor(1, 0));
  body[1] = 77;
  EXPECT_THROW(decode_request(body), ProtocolError);
  // Payload shorter than dims promise.
  body = encode_classify_request(DefenseScheme::Full, rows_tensor(2, 0));
  body.pop_back();
  EXPECT_THROW(decode_request(body), ProtocolError);
  // Zero dimension.
  body = encode_classify_request(DefenseScheme::Full, rows_tensor(1, 0));
  std::uint32_t zero = 0;
  std::memcpy(body.data() + 4, &zero, sizeof(zero));
  EXPECT_THROW(decode_request(body), ProtocolError);
  // Empty body.
  EXPECT_THROW(decode_request(std::span<const std::uint8_t>{}),
               ProtocolError);
}

// --- micro-batching bitwise identity ------------------------------------

struct RequestSpec {
  std::size_t rows;
  float base;
  DefenseScheme scheme;
};

std::vector<RequestSpec> identity_workload() {
  std::vector<RequestSpec> specs;
  for (std::size_t i = 0; i < 24; ++i) {
    specs.push_back({1 + i % 3, 0.05f * static_cast<float>(i % 13),
                     DefenseScheme::Full});
  }
  return specs;
}

/// Batched responses for N concurrent requests must be bitwise identical
/// to running each request alone — across batch sizes, flush deadlines
/// and with the Workspace arena on and off.
TEST_F(ServeTest, BatchedResponsesMatchSerialBitwise) {
  const auto specs = identity_workload();
  for (const bool workspace_on : {true, false}) {
    auto pipe = build_pipeline(workspace_on);
    // Serial baseline: one classify per request, no coalescing anywhere.
    std::vector<DefenseOutcome> serial;
    for (const auto& s : specs) {
      serial.push_back(
          pipe->classify(rows_tensor(s.rows, s.base), s.scheme));
    }
    for (const std::size_t max_rows : {std::size_t{1}, std::size_t{4},
                                       std::size_t{8}}) {
      for (const auto deadline :
           {std::chrono::microseconds{0}, std::chrono::microseconds{2000}}) {
        MicroBatcher batcher([pipe] { return pipe; },
                             {max_rows, deadline});
        std::vector<std::future<ServeResult>> futures(specs.size());
        // 4 concurrent submitters, interleaved striding so coalesced
        // batches mix requests from different threads.
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < 4; ++t) {
          threads.emplace_back([&, t] {
            for (std::size_t i = t; i < specs.size(); i += 4) {
              futures[i] = batcher.submit(
                  rows_tensor(specs[i].rows, specs[i].base),
                  specs[i].scheme);
            }
          });
        }
        for (auto& th : threads) th.join();
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const ServeResult r = futures[i].get();
          ASSERT_TRUE(r.ok) << r.error;
          EXPECT_TRUE(outcomes_bitwise_equal(r.outcome, serial[i]))
              << "request " << i << " max_rows=" << max_rows
              << " deadline_us=" << deadline.count()
              << " workspace=" << workspace_on;
        }
        EXPECT_EQ(batcher.pending(), 0u);
      }
    }
  }
}

/// Requests under different schemes are never coalesced into one forward
/// batch, but all of them are served and each matches its serial result.
TEST_F(ServeTest, MixedSchemesServedCorrectly) {
  auto pipe = build_pipeline();
  const DefenseScheme schemes[] = {
      DefenseScheme::None, DefenseScheme::DetectorOnly,
      DefenseScheme::ReformerOnly, DefenseScheme::Full};
  std::vector<DefenseOutcome> serial;
  for (std::size_t i = 0; i < 16; ++i) {
    serial.push_back(pipe->classify(rows_tensor(1, 0.04f * i),
                                    schemes[i % 4]));
  }
  MicroBatcher batcher([pipe] { return pipe; },
                       {8, std::chrono::microseconds{1000}});
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 16; ++i) {
    futures.push_back(
        batcher.submit(rows_tensor(1, 0.04f * i), schemes[i % 4]));
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const ServeResult r = futures[i].get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(outcomes_bitwise_equal(r.outcome, serial[i])) << i;
  }
}

TEST_F(ServeTest, MixedExecModesServedCorrectly) {
  // One pipeline with a prepared int8 bank; float and int8 submissions
  // interleave through one batcher and each must match its serial answer
  // bitwise (the coalescing key includes the exec mode, so a batch never
  // mixes banks).
  auto clf = threshold_classifier();
  auto ae = scaling_ae(0.5f);
  auto pipe = std::make_shared<MagNetPipeline>(clf);
  auto det = std::make_shared<magnet::ReconstructionDetector>(ae, 1);
  det->set_threshold(0.2f);
  pipe->add_detector(det);
  pipe->set_reformer(std::make_shared<magnet::Reformer>(ae));
  pipe->prepare_quantized(rows_tensor(8, 0.05f));
  std::shared_ptr<const MagNetPipeline> cpipe = pipe;

  std::vector<DefenseOutcome> serial;
  for (std::size_t i = 0; i < 12; ++i) {
    const auto mode =
        i % 2 == 0 ? magnet::ExecMode::Float : magnet::ExecMode::Int8;
    serial.push_back(
        cpipe->classify(rows_tensor(1, 0.04f * i), DefenseScheme::Full, mode));
  }
  MicroBatcher batcher([cpipe] { return cpipe; },
                       {8, std::chrono::microseconds{1000}});
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 12; ++i) {
    const auto mode =
        i % 2 == 0 ? magnet::ExecMode::Float : magnet::ExecMode::Int8;
    futures.push_back(
        batcher.submit(rows_tensor(1, 0.04f * i), DefenseScheme::Full, mode));
  }
  for (std::size_t i = 0; i < 12; ++i) {
    const ServeResult r = futures[i].get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(outcomes_bitwise_equal(r.outcome, serial[i])) << i;
  }
}

TEST_F(ServeTest, CoalescingActuallyBatches) {
  if (!obs::enabled()) GTEST_SKIP() << "obs pinned off";
  auto pipe = build_pipeline();
  const std::uint64_t batches_before = counter_value("serve/batches");
  const std::uint64_t rows_before = counter_value("serve/batch_rows");
  {
    // Long deadline: 8 quick single-row submits close one full batch.
    MicroBatcher batcher([pipe] { return pipe; },
                         {8, std::chrono::microseconds{200000}});
    std::vector<std::future<ServeResult>> futures;
    for (std::size_t i = 0; i < 8; ++i) {
      futures.push_back(
          batcher.submit(rows_tensor(1, 0.1f * i), DefenseScheme::Full));
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok);
  }
  const std::uint64_t batches = counter_value("serve/batches") - batches_before;
  const std::uint64_t rows = counter_value("serve/batch_rows") - rows_before;
  EXPECT_EQ(rows, 8u);
  EXPECT_LE(batches, 2u);  // nearly always 1; 2 tolerates scheduler jitter
}

TEST_F(ServeTest, SubmitValidatesAndStops) {
  auto pipe = build_pipeline();
  MicroBatcher batcher([pipe] { return pipe; });
  // Rank != 4 rejected without touching the queue.
  ServeResult bad = batcher.submit(Tensor({2, 2}), DefenseScheme::Full).get();
  EXPECT_FALSE(bad.ok);
  batcher.stop();
  ServeResult after = batcher.submit(rows_tensor(1, 0.1f),
                                     DefenseScheme::Full)
                          .get();
  EXPECT_FALSE(after.ok);
  EXPECT_NE(after.error.find("stopped"), std::string::npos);
}

// --- fault containment --------------------------------------------------

TEST_F(ServeTest, ModelLoadFaultDegradesToErrorResponse) {
  auto pipe = build_pipeline();
  std::size_t factory_calls = 0;
  MicroBatcher batcher(
      [pipe, &factory_calls] {
        ++factory_calls;
        return pipe;
      },
      {4, std::chrono::microseconds{0}});
  fault::arm("serve.model_load:fail_once");
  const ServeResult r1 =
      batcher.submit(rows_tensor(1, 0.3f), DefenseScheme::Full).get();
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("serve.model_load"), std::string::npos);
  EXPECT_FALSE(batcher.pipeline_loaded());
  // The daemon keeps serving: the next request reloads and succeeds.
  const ServeResult r2 =
      batcher.submit(rows_tensor(1, 0.3f), DefenseScheme::Full).get();
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(batcher.pipeline_loaded());
  EXPECT_EQ(factory_calls, 1u);
  EXPECT_TRUE(outcomes_bitwise_equal(
      r2.outcome, pipe->classify(rows_tensor(1, 0.3f), DefenseScheme::Full)));
}

TEST_F(ServeTest, MidBatchForwardFaultFailsOnlyThatBatch) {
  auto pipe = build_pipeline();
  MicroBatcher batcher([pipe] { return pipe; },
                       {4, std::chrono::microseconds{0}});
  fault::arm("serve.batch_forward:fail_once");
  const ServeResult r1 =
      batcher.submit(rows_tensor(2, 0.2f), DefenseScheme::Full).get();
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("serve.batch_forward"), std::string::npos);
  const ServeResult r2 =
      batcher.submit(rows_tensor(2, 0.2f), DefenseScheme::Full).get();
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_TRUE(outcomes_bitwise_equal(
      r2.outcome, pipe->classify(rows_tensor(2, 0.2f), DefenseScheme::Full)));
}

TEST_F(ServeTest, DaemonSurvivesFaultsEndToEnd) {
  auto pipe = build_pipeline();
  ServeConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.batch = {4, std::chrono::microseconds{0}};
  ServeDaemon daemon([pipe] { return pipe; }, cfg);
  daemon.start();
  // First request: model load fails. Second: forward fails mid-batch.
  // Third: healthy. The daemon answers all three.
  fault::arm("serve.model_load:fail_once,serve.batch_forward:fail_once");
  ServeClient client(cfg.socket_path);
  const Tensor x = rows_tensor(1, 0.35f);
  const ClassifyResponse r1 = client.classify(x, DefenseScheme::Full);
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("serve.model_load"), std::string::npos);
  const ClassifyResponse r2 = client.classify(x, DefenseScheme::Full);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("serve.batch_forward"), std::string::npos);
  const ClassifyResponse r3 = client.classify(x, DefenseScheme::Full);
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_TRUE(outcomes_bitwise_equal(
      r3.outcome, pipe->classify(x, DefenseScheme::Full)));
  daemon.stop();
}

/// Soak: hundreds of mixed-size requests from several threads drain with
/// no stuck queue and monotone obs counters that add up exactly.
TEST_F(ServeTest, SoakMixedSizesDrainsCleanly) {
  auto pipe = build_pipeline();
  const bool counters = obs::enabled();
  const std::uint64_t req_before = counter_value("serve/requests");
  const std::uint64_t ok_before = counter_value("serve/responses_ok");
  const std::uint64_t err_before = counter_value("serve/responses_error");
  const std::uint64_t rows_before = counter_value("serve/batch_rows");

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 75;
  // Workload parameters are deterministic in (t, i); precompute every
  // serial baseline BEFORE the batcher exists — classify() runs on the
  // batcher thread during the soak, so workers must never call it.
  std::vector<std::vector<DefenseOutcome>> expected(3);  // [rows-1][mod29]
  for (std::size_t rows = 1; rows <= 3; ++rows) {
    for (std::size_t mod = 0; mod < 29; ++mod) {
      expected[rows - 1].push_back(pipe->classify(
          rows_tensor(rows, 0.03f * static_cast<float>(mod)),
          DefenseScheme::Full));
    }
  }
  std::atomic<std::size_t> total_rows{0};
  std::atomic<std::size_t> failures{0};
  {
    MicroBatcher batcher([pipe] { return pipe; },
                         {8, std::chrono::microseconds{100}});
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::size_t rows = 1 + (t + i) % 3;
          const std::size_t mod = (t * 31 + i) % 29;
          total_rows.fetch_add(rows);
          const ServeResult r =
              batcher
                  .submit(rows_tensor(rows,
                                      0.03f * static_cast<float>(mod)),
                          DefenseScheme::Full)
                  .get();
          if (!r.ok ||
              !outcomes_bitwise_equal(r.outcome,
                                      expected[rows - 1][mod])) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(batcher.pending(), 0u);  // no stuck queue
  }
  EXPECT_EQ(failures.load(), 0u);
  if (counters) {
    constexpr std::uint64_t kRequests = kThreads * kPerThread;
    // Soak spot-checks call classify() directly on the main thread too,
    // but those do not pass through serve/ counters — the serve deltas
    // must match the submitted workload exactly, and stay monotone.
    EXPECT_EQ(counter_value("serve/requests") - req_before, kRequests);
    EXPECT_EQ(counter_value("serve/responses_ok") - ok_before, kRequests);
    EXPECT_EQ(counter_value("serve/responses_error") - err_before, 0u);
    EXPECT_EQ(counter_value("serve/batch_rows") - rows_before,
              total_rows.load());
    EXPECT_GE(counter_value("serve/batches"), 1u);
  }
}

// --- protocol robustness over the socket --------------------------------

struct DaemonFixture {
  std::shared_ptr<const MagNetPipeline> pipe = build_pipeline();
  ServeConfig cfg;
  std::unique_ptr<ServeDaemon> daemon;

  explicit DaemonFixture(std::size_t max_body = 1 << 20) {
    cfg.socket_path = test_socket_path();
    cfg.batch = {4, std::chrono::microseconds{100}};
    cfg.max_body_bytes = max_body;
    auto p = pipe;
    daemon = std::make_unique<ServeDaemon>([p] { return p; }, cfg);
    daemon->start();
  }

  /// The post-abuse liveness probe: a fresh well-behaved client must get
  /// correct service, proving the batcher was not wedged.
  void expect_alive() {
    ServeClient client(cfg.socket_path);
    EXPECT_TRUE(client.ping());
    const Tensor x = rows_tensor(2, 0.3f);
    const ClassifyResponse r = client.classify(x, DefenseScheme::Full);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(outcomes_bitwise_equal(
        r.outcome, pipe->classify(x, DefenseScheme::Full)));
  }
};

TEST_F(ServeTest, DaemonServesClassifyAndPing) {
  DaemonFixture fx;
  fx.expect_alive();
  // Several sequential requests on one connection.
  ServeClient client(fx.cfg.socket_path);
  for (std::size_t i = 0; i < 5; ++i) {
    const Tensor x = rows_tensor(1 + i % 2, 0.1f * static_cast<float>(i));
    const ClassifyResponse r = client.classify(x, DefenseScheme::Full);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(outcomes_bitwise_equal(
        r.outcome, fx.pipe->classify(x, DefenseScheme::Full)));
  }
}

std::shared_ptr<const MagNetPipeline> build_quant_pipeline() {
  auto clf = threshold_classifier();
  auto ae = scaling_ae(0.5f);
  auto pipe = std::make_shared<MagNetPipeline>(clf);
  auto det = std::make_shared<magnet::ReconstructionDetector>(ae, 1);
  det->set_threshold(0.2f);
  pipe->add_detector(det);
  pipe->set_reformer(std::make_shared<magnet::Reformer>(ae));
  pipe->prepare_quantized(rows_tensor(8, 0.05f));
  return pipe;
}

TEST_F(ServeTest, QuantizedAndFloatClassifyBothRoundTripOverWire) {
  auto pipe = build_quant_pipeline();
  ServeConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.batch = {4, std::chrono::microseconds{100}};
  ServeDaemon daemon([pipe] { return pipe; }, cfg);
  daemon.start();

  ServeClient client(cfg.socket_path);
  const Tensor x = rows_tensor(3, 0.15f);
  const ClassifyResponse rf = client.classify(x, DefenseScheme::Full);
  const ClassifyResponse ri =
      client.classify(x, DefenseScheme::Full, /*deadline_ms=*/0,
                      /*quantized=*/true);
  ASSERT_TRUE(rf.ok) << rf.error;
  ASSERT_TRUE(ri.ok) << ri.error;
  // Both responses carry detector readings and match their serial bank.
  EXPECT_FALSE(rf.outcome.readings.empty());
  EXPECT_FALSE(ri.outcome.readings.empty());
  EXPECT_TRUE(outcomes_bitwise_equal(
      rf.outcome,
      pipe->classify(x, DefenseScheme::Full, magnet::ExecMode::Float)));
  EXPECT_TRUE(outcomes_bitwise_equal(
      ri.outcome,
      pipe->classify(x, DefenseScheme::Full, magnet::ExecMode::Int8)));
  daemon.stop();
}

TEST_F(ServeTest, QuantDefaultModeAppliesToUnmarkedRequests) {
  // serve_daemon --quant: unmarked requests follow the daemon default
  // (int8 here); marked requests run int8 regardless.
  auto pipe = build_quant_pipeline();
  ServeConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.batch = {4, std::chrono::microseconds{100}};
  cfg.default_mode = magnet::ExecMode::Int8;
  ServeDaemon daemon([pipe] { return pipe; }, cfg);
  daemon.start();

  ServeClient client(cfg.socket_path);
  const Tensor x = rows_tensor(2, 0.35f);
  const ClassifyResponse unmarked = client.classify(x, DefenseScheme::Full);
  ASSERT_TRUE(unmarked.ok) << unmarked.error;
  EXPECT_TRUE(outcomes_bitwise_equal(
      unmarked.outcome,
      pipe->classify(x, DefenseScheme::Full, magnet::ExecMode::Int8)));
  daemon.stop();
}

TEST_F(ServeTest, GarbageBytesDropConnectionCleanly) {
  DaemonFixture fx;
  {
    RawConnection raw(fx.cfg.socket_path);
    std::uint8_t junk[64];
    for (std::size_t i = 0; i < sizeof(junk); ++i) {
      junk[i] = static_cast<std::uint8_t>(37 * i + 11);
    }
    raw.send_bytes(junk, sizeof(junk));
    EXPECT_TRUE(raw.wait_for_close(std::chrono::milliseconds{2000}));
  }
  fx.expect_alive();
}

TEST_F(ServeTest, OversizeLengthPrefixRejected) {
  DaemonFixture fx(/*max_body=*/4096);
  {
    RawConnection raw(fx.cfg.socket_path);
    // Valid magic/version, body_len far beyond the daemon's limit. The
    // daemon must reject it WITHOUT allocating or reading that much.
    const std::uint32_t header[3] = {kRequestMagic, kProtocolVersion,
                                     0x40000000u};  // 1 GiB
    raw.send_bytes(header, sizeof(header));
    EXPECT_TRUE(raw.wait_for_close(std::chrono::milliseconds{2000}));
  }
  fx.expect_alive();
}

TEST_F(ServeTest, TruncatedFrameThenDisconnect) {
  DaemonFixture fx;
  {
    // Header promises 256 body bytes; client sends 10 and hangs up.
    RawConnection raw(fx.cfg.socket_path);
    const std::uint32_t header[3] = {kRequestMagic, kProtocolVersion, 256};
    raw.send_bytes(header, sizeof(header));
    std::uint8_t partial[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    raw.send_bytes(partial, sizeof(partial));
    raw.close();
  }
  fx.expect_alive();
}

TEST_F(ServeTest, UndecodableBodyGetsErrorAndKeepsConnection) {
  DaemonFixture fx;
  RawConnection raw(fx.cfg.socket_path);
  // Well-framed body whose type byte is unknown.
  const std::uint8_t bad_type = 9;
  const std::uint32_t header[3] = {kRequestMagic, kProtocolVersion, 1};
  raw.send_bytes(header, sizeof(header));
  raw.send_bytes(&bad_type, 1);
  // Expect a complete error-response frame back.
  std::uint32_t resp_header[3];
  std::size_t got = 0;
  auto* p = reinterpret_cast<std::uint8_t*>(resp_header);
  while (got < sizeof(resp_header)) {
    const std::size_t r = raw.recv_some(p + got, sizeof(resp_header) - got);
    ASSERT_GT(r, 0u) << "daemon closed instead of answering";
    got += r;
  }
  EXPECT_EQ(resp_header[0], kResponseMagic);
  std::vector<std::uint8_t> body(resp_header[2]);
  got = 0;
  while (got < body.size()) {
    const std::size_t r = raw.recv_some(body.data() + got, body.size() - got);
    ASSERT_GT(r, 0u);
    got += r;
  }
  const ClassifyResponse resp = decode_response(body);
  EXPECT_FALSE(resp.ok);
  // Framing stayed intact: the SAME connection still serves a valid ping.
  const auto ping = encode_ping_request();
  const std::uint32_t ping_header[3] = {
      kRequestMagic, kProtocolVersion, static_cast<std::uint32_t>(ping.size())};
  raw.send_bytes(ping_header, sizeof(ping_header));
  raw.send_bytes(ping.data(), ping.size());
  got = 0;
  while (got < sizeof(resp_header)) {
    const std::size_t r = raw.recv_some(p + got, sizeof(resp_header) - got);
    ASSERT_GT(r, 0u);
    got += r;
  }
  EXPECT_EQ(resp_header[0], kResponseMagic);
  fx.expect_alive();
}

TEST_F(ServeTest, AbuseBarrageNeverWedgesBatcher) {
  DaemonFixture fx(/*max_body=*/4096);
  // A volley of every abuse at once, interleaved with real traffic.
  for (std::size_t round = 0; round < 3; ++round) {
    {
      RawConnection raw(fx.cfg.socket_path);
      const std::uint32_t bad[3] = {0xDEADBEEF, 1, 4};
      raw.send_bytes(bad, sizeof(bad));
    }
    {
      RawConnection raw(fx.cfg.socket_path);
      const std::uint32_t header[3] = {kRequestMagic, kProtocolVersion,
                                       0xFFFFFFFFu};
      raw.send_bytes(header, sizeof(header));
    }
    {
      RawConnection raw(fx.cfg.socket_path);
      const std::uint32_t header[3] = {kRequestMagic, kProtocolVersion, 128};
      raw.send_bytes(header, sizeof(header));
      // disconnect mid-request
    }
    fx.expect_alive();
  }
  // Concurrent well-formed clients still get exact service. Verification
  // is deferred past the joins — classify() may only run on the batcher
  // thread while traffic is in flight.
  std::vector<std::thread> threads;
  std::vector<std::vector<ClassifyResponse>> responses(4);
  std::atomic<std::size_t> transport_failures{0};
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      ServeClient client(fx.cfg.socket_path);
      for (std::size_t i = 0; i < 10; ++i) {
        const Tensor x = rows_tensor(1, 0.07f * static_cast<float>(t + i));
        try {
          responses[t].push_back(client.classify(x, DefenseScheme::Full));
        } catch (const std::exception&) {
          transport_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(transport_failures.load(), 0u);
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(responses[t].size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
      const Tensor x = rows_tensor(1, 0.07f * static_cast<float>(t + i));
      ASSERT_TRUE(responses[t][i].ok) << responses[t][i].error;
      EXPECT_TRUE(outcomes_bitwise_equal(
          responses[t][i].outcome,
          fx.pipe->classify(x, DefenseScheme::Full)));
    }
  }
}

// --- overload protection: admission, deadlines, watchdog, drain ---------

/// Wedges the batcher's first forward with a `stall` failpoint so the
/// queue can be populated deterministically behind it; fault::reset()
/// releases the wedge.
TEST_F(ServeTest, AdmissionQueueShedsWhenFull) {
  auto pipe = build_pipeline();
  // The pipeline is not reentrant (DESIGN.md §14): take the reference
  // before the batcher's executor starts forwarding on it.
  const DefenseOutcome want =
      pipe->classify(rows_tensor(1, 0.2f), DefenseScheme::Full);
  const std::uint64_t shed_before = counter_value("serve/shed");
  MicroBatcher batcher([pipe] { return pipe; },
                       {.max_batch_rows = 1,
                        .flush_deadline = std::chrono::microseconds{0},
                        .max_queue_rows = 4});
  fault::arm("serve.batch_forward:stall");
  auto wedged = batcher.submit(rows_tensor(1, 0.1f), DefenseScheme::Full);
  while (batcher.pending() != 0) std::this_thread::yield();  // taken, wedged

  // Fill the admission queue exactly to its bound...
  std::vector<std::future<ServeResult>> admitted;
  for (std::size_t i = 0; i < 4; ++i) {
    admitted.push_back(
        batcher.submit(rows_tensor(1, 0.2f), DefenseScheme::Full));
  }
  EXPECT_EQ(batcher.pending(), 4u);
  // ...then one more row must be shed immediately: resolved future, no
  // compute spent, Overloaded status.
  auto shed = batcher.submit(rows_tensor(1, 0.3f), DefenseScheme::Full);
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const ServeResult r = shed.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.status, ResultStatus::Overloaded);
  EXPECT_NE(r.error.find("overloaded"), std::string::npos);
  if (obs::enabled()) {
    EXPECT_EQ(counter_value("serve/shed") - shed_before, 1u);
  }

  // Releasing the wedge drains everything that WAS admitted, correctly.
  fault::reset();
  ASSERT_TRUE(wedged.get().ok);
  for (auto& f : admitted) {
    const ServeResult a = f.get();
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_TRUE(outcomes_bitwise_equal(a.outcome, want));
  }
}

/// An oversized lone request (> max_queue_rows) is still admitted into an
/// empty queue — it runs as its own batch, mirroring the oversized-batch
/// rule.
TEST_F(ServeTest, OversizedRequestAdmittedIntoEmptyQueue) {
  auto pipe = build_pipeline();
  MicroBatcher batcher([pipe] { return pipe; },
                       {.max_batch_rows = 2,
                        .flush_deadline = std::chrono::microseconds{0},
                        .max_queue_rows = 2});
  const ServeResult r =
      batcher.submit(rows_tensor(5, 0.1f), DefenseScheme::Full).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(outcomes_bitwise_equal(
      r.outcome, pipe->classify(rows_tensor(5, 0.1f), DefenseScheme::Full)));
}

/// A queued request whose deadline ran out is answered DeadlineExceeded
/// at dequeue — no forward pass is spent on it — while a no-deadline
/// request behind the same wedge is served normally.
TEST_F(ServeTest, DeadlineExpiresInQueueWithoutForwardPass) {
  auto pipe = build_pipeline();
  const std::uint64_t ddl_before = counter_value("serve/deadline_expired");
  const std::uint64_t rows_before = counter_value("serve/batch_rows");
  MicroBatcher batcher([pipe] { return pipe; },
                       {.max_batch_rows = 1,
                        .flush_deadline = std::chrono::microseconds{0}});
  fault::arm("serve.batch_forward:stall");
  auto wedged = batcher.submit(rows_tensor(1, 0.1f), DefenseScheme::Full);
  while (batcher.pending() != 0) std::this_thread::yield();

  auto doomed = batcher.submit(rows_tensor(1, 0.2f), DefenseScheme::Full,
                               magnet::ExecMode::Float,
                               std::chrono::milliseconds(20));
  auto patient = batcher.submit(rows_tensor(1, 0.3f), DefenseScheme::Full);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // budget gone
  fault::reset();

  ASSERT_TRUE(wedged.get().ok);
  const ServeResult d = doomed.get();
  EXPECT_FALSE(d.ok);
  EXPECT_EQ(d.status, ResultStatus::DeadlineExceeded);
  const ServeResult p = patient.get();
  ASSERT_TRUE(p.ok) << p.error;
  if (obs::enabled()) {
    EXPECT_EQ(counter_value("serve/deadline_expired") - ddl_before, 1u);
    // Only the wedged and patient rows ever reached a forward batch.
    EXPECT_EQ(counter_value("serve/batch_rows") - rows_before, 2u);
  }
}

/// Watchdog: a stuck forward pass fails ITS batch with an error result
/// while the batcher spawns a replacement executor and keeps serving.
/// The factory builds a fresh pipeline per call, as the watchdog
/// contract requires (batcher.hpp).
TEST_F(ServeTest, WatchdogTripFailsBatchAndKeepsServing) {
  const std::uint64_t trips_before = counter_value("serve/watchdog_trips");
  MicroBatcher batcher([] { return build_pipeline(); },
                       {.max_batch_rows = 1,
                        .flush_deadline = std::chrono::microseconds{0},
                        .watchdog_timeout = std::chrono::milliseconds{100}});
  // Only the FIRST forward stalls; the replacement executor's batches
  // sail through without needing a disarm.
  fault::arm("serve.batch_forward:stall_once");
  const ServeResult tripped =
      batcher.submit(rows_tensor(1, 0.1f), DefenseScheme::Full).get();
  EXPECT_FALSE(tripped.ok);
  EXPECT_EQ(tripped.status, ResultStatus::Error);
  EXPECT_NE(tripped.error.find("watchdog"), std::string::npos);
  if (obs::enabled()) {
    EXPECT_EQ(counter_value("serve/watchdog_trips") - trips_before, 1u);
  }

  const ServeResult next =
      batcher.submit(rows_tensor(1, 0.2f), DefenseScheme::Full).get();
  ASSERT_TRUE(next.ok) << next.error;
  EXPECT_TRUE(outcomes_bitwise_equal(
      next.outcome, build_pipeline()->classify(rows_tensor(1, 0.2f),
                                               DefenseScheme::Full)));
  // Release the abandoned executor BEFORE stop() so the drain grace is
  // not spent waiting on a thread the test itself wedged.
  fault::reset();
  batcher.stop();
}

/// With the watchdog enabled but never tripping, batched results remain
/// bitwise identical to the serial path (the executor thread changes
/// WHERE classify runs, not what it computes).
TEST_F(ServeTest, WatchdogIdleKeepsBitwiseIdentity) {
  auto pipe = build_pipeline();
  // References first: the executor forwards on `pipe`, which is not
  // reentrant (DESIGN.md §14).
  std::vector<DefenseOutcome> want;
  for (std::size_t i = 0; i < 12; ++i) {
    want.push_back(pipe->classify(rows_tensor(1 + i % 2, 0.05f * i),
                                  DefenseScheme::Full));
  }
  MicroBatcher batcher([pipe] { return pipe; },
                       {.max_batch_rows = 4,
                        .flush_deadline = std::chrono::microseconds{500},
                        .watchdog_timeout = std::chrono::seconds{30}});
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 12; ++i) {
    futures.push_back(batcher.submit(rows_tensor(1 + i % 2, 0.05f * i),
                                     DefenseScheme::Full));
  }
  for (std::size_t i = 0; i < 12; ++i) {
    const ServeResult r = futures[i].get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(outcomes_bitwise_equal(r.outcome, want[i]));
  }
}

/// stop() drains: the in-flight batch finishes, everything still queued
/// is answered with an Overloaded shed result, and stop() returns.
TEST_F(ServeTest, StopShedsQueuedRequests) {
  auto pipe = build_pipeline();
  const std::uint64_t shed_before = counter_value("serve/shed");
  MicroBatcher batcher([pipe] { return pipe; },
                       {.max_batch_rows = 1,
                        .flush_deadline = std::chrono::microseconds{0}});
  fault::arm("serve.batch_forward:stall");
  auto wedged = batcher.submit(rows_tensor(1, 0.1f), DefenseScheme::Full);
  while (batcher.pending() != 0) std::this_thread::yield();
  std::vector<std::future<ServeResult>> queued;
  for (std::size_t i = 0; i < 3; ++i) {
    queued.push_back(
        batcher.submit(rows_tensor(1, 0.2f), DefenseScheme::Full));
  }
  std::thread stopper([&] { batcher.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  fault::reset();  // in-flight batch completes; drain takes over
  stopper.join();

  ASSERT_TRUE(wedged.get().ok);  // finished, not abandoned
  for (auto& f : queued) {
    const ServeResult r = f.get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, ResultStatus::Overloaded);
    EXPECT_NE(r.error.find("draining"), std::string::npos);
  }
  if (obs::enabled()) {
    EXPECT_EQ(counter_value("serve/shed") - shed_before, 3u);
  }
  EXPECT_EQ(batcher.pending(), 0u);
}

/// `delay` latency faults are transparent: injected latency, identical
/// bytes.
TEST_F(ServeTest, DelayFaultPreservesBitwiseResults) {
  auto pipe = build_pipeline();
  // References first: the batcher forwards on the non-reentrant `pipe`.
  std::vector<DefenseOutcome> want;
  for (std::size_t i = 0; i < 6; ++i) {
    want.push_back(
        pipe->classify(rows_tensor(1, 0.08f * i), DefenseScheme::Full));
  }
  MicroBatcher batcher([pipe] { return pipe; },
                       {4, std::chrono::microseconds{100}});
  fault::arm("serve.batch_forward:delay=5");
  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 6; ++i) {
    futures.push_back(
        batcher.submit(rows_tensor(1, 0.08f * i), DefenseScheme::Full));
  }
  for (std::size_t i = 0; i < 6; ++i) {
    const ServeResult r = futures[i].get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(outcomes_bitwise_equal(r.outcome, want[i]));
  }
}

// --- typed client errors, retries, deadline over the socket -------------

TEST_F(ServeTest, RetryBackoffScheduleIsDeterministic) {
  RetryPolicy rp;
  rp.base_backoff = std::chrono::milliseconds(10);
  rp.max_backoff = std::chrono::milliseconds(80);
  rp.jitter_seed = 7;
  for (std::uint32_t a = 0; a < 10; ++a) {
    const std::uint64_t v = rp.backoff_ms(a);
    EXPECT_EQ(v, rp.backoff_ms(a)) << a;  // pure in (seed, attempt)
    const std::uint64_t cap = std::min<std::uint64_t>(10ull << a, 80);
    EXPECT_GE(v, cap / 2) << a;
    EXPECT_LE(v, cap) << a;
  }
  RetryPolicy other = rp;
  other.jitter_seed = 8;
  bool any_differ = false;
  for (std::uint32_t a = 0; a < 10; ++a) {
    any_differ = any_differ || other.backoff_ms(a) != rp.backoff_ms(a);
  }
  EXPECT_TRUE(any_differ);  // the seed actually decorrelates schedules
}

TEST_F(ServeTest, ConnectToMissingSocketThrowsTypedError) {
  const auto path = test_socket_path();
  std::filesystem::remove(path);
  EXPECT_THROW(ServeClient{path}, ConnectError);
}

/// A wedged daemon surfaces as TimeoutError through recv_timeout instead
/// of hanging the caller; the daemon itself stays healthy once released.
TEST_F(ServeTest, RecvTimeoutSurfacesAsTypedError) {
  DaemonFixture fx;
  fault::arm("serve.batch_forward:stall");
  {
    ClientConfig ccfg;
    ccfg.recv_timeout = std::chrono::milliseconds(150);
    ServeClient client(fx.cfg.socket_path, ccfg);
    EXPECT_THROW(client.classify(rows_tensor(1, 0.2f), DefenseScheme::Full),
                 TimeoutError);
  }
  fault::reset();
  fx.expect_alive();
}

/// Overloaded responses are retried (and only those): a client with a
/// retry budget spends it against a saturated daemon, counts its
/// retries, and still comes back Overloaded once the budget is gone.
TEST_F(ServeTest, ClientRetriesShedRequestsWithBackoff) {
  auto pipe = build_pipeline();
  const std::uint64_t retries_before = counter_value("serve/client_retries");
  ServeConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.batch = {.max_batch_rows = 1,
               .flush_deadline = std::chrono::microseconds{0},
               .max_queue_rows = 1};
  ServeDaemon daemon([pipe] { return pipe; }, cfg);
  daemon.start();
  fault::arm("serve.batch_forward:stall");

  // Wedge the daemon: one request parked in-flight at the stall, then a
  // second filling the 1-row admission queue behind it. hit_count flips
  // exactly when the first batch reaches the failpoint, so the ordering
  // is deterministic; the queued row cannot leave while the (inline)
  // batcher thread is stalled.
  std::thread wedge_inflight([&] {
    ServeClient c(cfg.socket_path);
    const auto r = c.classify(rows_tensor(1, 0.1f), DefenseScheme::Full);
    EXPECT_TRUE(r.ok) << r.error;
  });
  while (fault::hit_count("serve.batch_forward") == 0) {
    std::this_thread::yield();
  }
  std::thread wedge_queued([&] {
    ServeClient c(cfg.socket_path);
    const auto r = c.classify(rows_tensor(1, 0.15f), DefenseScheme::Full);
    EXPECT_TRUE(r.ok) << r.error;
  });
  while (daemon.batcher().pending() == 0) std::this_thread::yield();

  ClientConfig ccfg;
  ccfg.retry.max_attempts = 3;
  ccfg.retry.base_backoff = std::chrono::milliseconds(1);
  ccfg.retry.max_backoff = std::chrono::milliseconds(4);
  ServeClient retrier(cfg.socket_path, ccfg);
  const ClassifyResponse shed =
      retrier.classify(rows_tensor(1, 0.2f), DefenseScheme::Full);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.status, Status::Overloaded);
  EXPECT_EQ(retrier.retries(), 2u);  // 3 attempts = 2 retries
  if (obs::enabled()) {
    EXPECT_EQ(counter_value("serve/client_retries") - retries_before, 2u);
  }

  fault::reset();
  wedge_inflight.join();
  wedge_queued.join();
  daemon.stop();
}

/// deadline_ms rides the wire: a request queued behind a wedge with a
/// small budget comes back DeadlineExceeded, not Ok and not Error.
TEST_F(ServeTest, DeadlineTravelsOverSocket) {
  DaemonFixture fx;
  fault::arm("serve.batch_forward:stall");
  std::thread wedge([&] {
    ServeClient c(fx.cfg.socket_path);
    const auto r = c.classify(rows_tensor(1, 0.1f), DefenseScheme::Full);
    EXPECT_TRUE(r.ok) << r.error;
  });
  // The wedge is provably in-flight (not merely queued) once the forward
  // failpoint records a hit, so `doomed` lands in the queue behind it.
  while (fault::hit_count("serve.batch_forward") == 0) {
    std::this_thread::yield();
  }

  std::thread doomed([&] {
    ServeClient c(fx.cfg.socket_path);
    const auto r = c.classify(rows_tensor(1, 0.2f), DefenseScheme::Full,
                              /*deadline_ms=*/20);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.status, Status::DeadlineExceeded);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  fault::reset();
  doomed.join();
  wedge.join();
  fx.expect_alive();
}

/// Chaos soak (the ISSUE's acceptance scenario in miniature): a tiny
/// daemon with delay faults armed, saturated by concurrent clients with
/// mixed deadlines and retry budgets. Nothing may deadlock, every
/// request resolves with a legal status, the batcher accounting
/// invariant holds exactly, and shutdown drains cleanly.
TEST_F(ServeTest, ChaosSoakUnderLatencyFaultsDrainsAndAccounts) {
  auto pipe = build_pipeline();
  const std::uint64_t req0 = counter_value("serve/requests");
  const std::uint64_t ok0 = counter_value("serve/responses_ok");
  const std::uint64_t err0 = counter_value("serve/responses_error");
  const std::uint64_t shed0 = counter_value("serve/shed");
  const std::uint64_t ddl0 = counter_value("serve/deadline_expired");

  ServeConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.batch = {.max_batch_rows = 1,
               .flush_deadline = std::chrono::microseconds{0},
               .max_queue_rows = 2,
               .watchdog_timeout = std::chrono::seconds{20}};
  ServeDaemon daemon([pipe] { return pipe; }, cfg);
  daemon.start();
  fault::arm("serve.model_load:delay=10,serve.batch_forward:delay=5");

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 12;
  std::atomic<std::size_t> transport_failures{0};
  std::atomic<std::size_t> illegal_statuses{0};
  std::atomic<std::size_t> served_ok{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        ClientConfig ccfg;
        ccfg.recv_timeout = std::chrono::milliseconds(10000);
        if (c % 3 == 0) {
          ccfg.retry.max_attempts = 2;
          ccfg.retry.base_backoff = std::chrono::milliseconds(2);
          ccfg.retry.jitter_seed = c;
        }
        const std::uint32_t deadline_ms = (c % 2 == 0) ? 30 : 0;
        ServeClient client(cfg.socket_path, ccfg);
        for (std::size_t i = 0; i < kPerClient; ++i) {
          const auto r = client.classify(rows_tensor(1, 0.05f * (i % 7)),
                                         DefenseScheme::Full, deadline_ms);
          if (r.ok) {
            served_ok.fetch_add(1);
          } else if (r.status != Status::Overloaded &&
                     r.status != Status::DeadlineExceeded) {
            // delay faults are transparent: Error would be a real bug
            illegal_statuses.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        transport_failures.fetch_add(1);
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(transport_failures.load(), 0u);
  EXPECT_EQ(illegal_statuses.load(), 0u);
  EXPECT_GT(served_ok.load(), 0u);  // overload shed SOME, not ALL
  EXPECT_EQ(daemon.batcher().pending(), 0u);
  daemon.stop();  // must not hang (drain ordering, server.hpp)
  fault::reset();

  if (obs::enabled()) {
    const std::uint64_t requests = counter_value("serve/requests") - req0;
    const std::uint64_t ok = counter_value("serve/responses_ok") - ok0;
    const std::uint64_t err = counter_value("serve/responses_error") - err0;
    const std::uint64_t shed = counter_value("serve/shed") - shed0;
    const std::uint64_t ddl = counter_value("serve/deadline_expired") - ddl0;
    EXPECT_EQ(requests, ok + err + shed + ddl);  // nothing lost, ever
    EXPECT_EQ(err, 0u);
    EXPECT_EQ(ok, served_ok.load());
  }
}

}  // namespace
}  // namespace adv::serve
