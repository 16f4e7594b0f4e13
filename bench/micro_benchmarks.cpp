// Micro benchmarks (google-benchmark): throughput of the substrate
// operations that dominate experiment wall-clock — GEMM, conv forward and
// backward, auto-encoder inference, detector scoring, and single ISTA /
// plain-GD attack steps (the paper's eq. (4) loop body).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "magnet/autoencoder.hpp"
#include "magnet/detector.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/structural.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"
#include "quant/quantize.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace adv;

void BM_TensorAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Tensor a({n}, 1.0f), b({n}, 2.0f);
  for (auto _ : state) {
    axpy_inplace(a, 0.5f, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TensorAxpy)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a({n, n}), b({n, n}), c;
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024);

/// Conv-shaped (tall-skinny) GEMMs: the im2col products behind Conv2d
/// forward (M=out_ch, K=in_ch*k^2, N=H*W) and its two backward products.
void BM_GemmConvShape(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  Tensor a({m, k}), b({k, n}), c;
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(m * k * n));
}
BENCHMARK(BM_GemmConvShape)
    ->Args({32, 144, 12544})   // conv fwd: 16ch 3x3 -> 32ch, 64 x 14x14 imgs
    ->Args({32, 12544, 144})   // conv dW: grad_out x col^T
    ->Args({144, 32, 12544});  // conv dX: W^T x grad_out

void BM_ConvForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2d conv(nn::Conv2d::same(16, 32), rng);
  Tensor x({8, 16, 14, 14});
  fill_uniform(x, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = conv.forward(x, nn::Mode::Eval);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_ConvForward);

void BM_ConvBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(nn::Conv2d::same(16, 32), rng);
  Tensor x({8, 16, 14, 14});
  fill_uniform(x, rng, 0.0f, 1.0f);
  Tensor g({8, 32, 14, 14});
  fill_uniform(g, rng, -1.0f, 1.0f);
  conv.forward(x, nn::Mode::Eval);
  for (auto _ : state) {
    conv.zero_grad();
    Tensor dx = conv.backward(g);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_ConvBackward);

nn::Sequential small_classifier(Rng& rng) {
  nn::Sequential m;
  m.emplace<nn::Conv2d>(nn::Conv2d::same(1, 16), rng);
  m.emplace<nn::ReLU>();
  m.emplace<nn::MaxPool2d>(2);
  m.emplace<nn::Flatten>();
  m.emplace<nn::Linear>(16 * 14 * 14, 10, rng);
  return m;
}

void BM_AutoencoderForward(benchmark::State& state) {
  Rng rng(4);
  magnet::AutoencoderConfig cfg;
  cfg.filters = static_cast<std::size_t>(state.range(0));
  nn::Sequential ae = magnet::build_autoencoder(cfg, rng);
  Tensor x({16, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    Tensor y = ae.forward(x, nn::Mode::Eval);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AutoencoderForward)->Arg(3)->Arg(12);

void BM_DetectorScoring(benchmark::State& state) {
  Rng rng(5);
  magnet::AutoencoderConfig cfg;
  auto ae = std::make_shared<nn::Sequential>(magnet::build_autoencoder(cfg, rng));
  magnet::ReconstructionDetector det(ae, 2);
  Tensor x({32, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    auto s = det.scores(x);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_DetectorScoring);

/// One ISTA iteration of EAD (forward + hinge gradient + shrink) vs the
/// beta = 0 special case — the ablation of the paper's eq. (4) step cost.
void BM_AttackStep(benchmark::State& state) {
  const float beta = static_cast<float>(state.range(0)) * 1e-2f;
  Rng rng(6);
  nn::Sequential m = small_classifier(rng);
  Tensor x0({16, 1, 28, 28});
  fill_uniform(x0, rng, 0.0f, 1.0f);
  std::vector<int> labels(16, 0);
  std::vector<float> c(16, 1.0f);
  Tensor x = x0;
  Tensor shrunk;
  attacks::ObliviousTarget target(m);
  for (auto _ : state) {
    const attacks::HingeEval eval =
        attacks::eval_untargeted_hinge(target, x, labels, 10.0f);
    Tensor grad =
        attacks::hinge_input_gradient(target, x, eval, labels, 10.0f, c);
    axpy_inplace(x, -0.01f, grad);
    attacks::shrink_project(x, x0, beta, shrunk);
    std::swap(x, shrunk);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_AttackStep)->Arg(0)->Arg(1)->Arg(10);

void BM_ShrinkProject(benchmark::State& state) {
  Rng rng(7);
  Tensor z({64, 1, 28, 28}), x0({64, 1, 28, 28}), out;
  fill_uniform(z, rng, -0.2f, 1.2f);
  fill_uniform(x0, rng, 0.0f, 1.0f);
  for (auto _ : state) {
    attacks::shrink_project(z, x0, 0.05f, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(z.numel()));
}
BENCHMARK(BM_ShrinkProject);

/// Times one GEMM shape (best of `reps` runs after one warmup) and
/// returns achieved GFLOP/s.
double gemm_gflops(std::size_t m, std::size_t k, std::size_t n, int reps) {
  Rng rng(1);
  Tensor a({m, k}), b({k, n}), c;
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  gemm(a, b, c);  // warmup: touches pages, spins up the pool
  double best_s = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    gemm(a, b, c);
    const auto t1 = std::chrono::steady_clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
  }
  benchmark::DoNotOptimize(c.data());
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n) / best_s / 1e9;
}

/// Machine-readable GEMM perf snapshot so later changes can track the
/// trajectory: square and conv-shaped cases, GFLOP/s, to BENCH_gemm.json
/// in the working directory.
void write_gemm_json(const char* path) {
  struct Case {
    const char* name;
    std::size_t m, k, n;
  };
  const Case cases[] = {
      {"square_256", 256, 256, 256},    {"square_512", 512, 512, 512},
      {"square_1024", 1024, 1024, 1024}, {"conv_fwd", 32, 144, 12544},
      {"conv_dw", 32, 12544, 144},      {"conv_dx", 144, 32, 12544},
  };
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"unit\": \"GFLOP/s\",\n  \"threads\": %zu,\n"
               "  \"cases\": [\n",
               ThreadPool::global().thread_count());
  bool first = true;
  for (const Case& c : cases) {
    const double gflops = gemm_gflops(c.m, c.k, c.n, 3);
    std::fprintf(f,
                 "%s    {\"name\": \"%s\", \"m\": %zu, \"k\": %zu, "
                 "\"n\": %zu, \"gflops\": %.2f}",
                 first ? "" : ",\n", c.name, c.m, c.k, c.n, gflops);
    std::printf("BENCH_gemm %-12s %4zux%5zux%5zu  %7.2f GFLOP/s\n", c.name,
                c.m, c.k, c.n, gflops);
    first = false;
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// Per-shape direct-vs-im2col conv A/B over the MagNet model shapes.
/// Each case times forward and backward on both paths (best of `reps`
/// after warmup) and checks bitwise identity of the forward output, the
/// input gradient and the weight/bias gradients. Writes per-case times,
/// speedups and identity flags plus the aggregate "identity" and
/// "min_same3x3_fwd_speedup" fields to BENCH_conv.json; tools/ci.sh
/// gates on identity == 1 and min_same3x3_fwd_speedup >= 2.
void write_conv_json(const char* path) {
  struct Case {
    const char* name;
    nn::Conv2dConfig cfg;
    std::size_t batch, hw;
    // 3x3 "same" conv of the MagNet defense stack (autoencoder I/II,
    // filters 3 and 12): these are the shapes the >= 2x gate covers. The
    // clf_* cases are the attacked classifier's convs, reported for
    // information (identity-gated, but not speed-gated: their direct
    // path already runs near GEMM peak, so the headroom over im2col is
    // structurally smaller).
    bool magnet_same3x3;
  };
  const Case cases[] = {
      {"ae_in_1to3_28", nn::Conv2d::same(1, 3), 16, 28, true},
      {"ae_hidden_3to3_28", nn::Conv2d::same(3, 3), 16, 28, true},
      {"ae_out_3to1_28", nn::Conv2d::same(3, 1), 16, 28, true},
      {"ae_hidden_12to12_28", nn::Conv2d::same(12, 12), 16, 28, true},
      {"clf_1to16_28", nn::Conv2d::same(1, 16), 16, 28, false},
      {"clf_16to32_14", nn::Conv2d::same(16, 32), 8, 14, false},
  };
  constexpr int kReps = 7;

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"unit\": \"ms\",\n  \"threads\": %zu,\n",
               ThreadPool::global().thread_count());

  // Path-split counters over THIS A/B (delta, not process totals): every
  // direct-layer forward below bumps conv/direct_hits, every forced
  // fallback bumps conv/im2col_fallback — so both being > 0 certifies the
  // A/B really exercised both paths. Zero when obs is pinned off.
  const auto conv_counter = [](const char* key) {
    return obs::enabled()
               ? obs::MetricsRegistry::global().counter(key).value()
               : 0;
  };
  const std::uint64_t direct_hits0 = conv_counter("conv/direct_hits");
  const std::uint64_t im2col0 = conv_counter("conv/im2col_fallback");

  bool all_identical = true;
  double min_same3x3_fwd = 1e30;
  std::string rows;
  for (const Case& c : cases) {
    Rng wrng(11);
    nn::Conv2d direct(c.cfg, wrng);
    Rng wrng2(11);
    nn::Conv2d fallback(c.cfg, wrng2);
    fallback.set_force_im2col(true);

    Rng rng(12);
    Tensor x({c.batch, c.cfg.in_channels, c.hw, c.hw});
    fill_uniform(x, rng, 0.0f, 1.0f);
    const std::size_t od = direct.output_dim(c.hw);
    Tensor g({c.batch, c.cfg.out_channels, od, od});
    fill_uniform(g, rng, -1.0f, 1.0f);

    auto best_ms = [&](auto&& fn) {
      fn();  // warmup: pages, pool spin-up, packed-weight scratch
      double best_s = 1e30;
      for (int r = 0; r < kReps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best_s =
            std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
      }
      return best_s * 1e3;
    };

    const double fwd_d = best_ms([&] {
      Tensor y = direct.forward(x, nn::Mode::Infer);
      benchmark::DoNotOptimize(y.data());
    });
    const double fwd_i = best_ms([&] {
      Tensor y = fallback.forward(x, nn::Mode::Infer);
      benchmark::DoNotOptimize(y.data());
    });
    direct.forward(x, nn::Mode::Eval);
    fallback.forward(x, nn::Mode::Eval);
    const double bwd_d = best_ms([&] {
      direct.zero_grad();
      Tensor dx = direct.backward(g);
      benchmark::DoNotOptimize(dx.data());
    });
    const double bwd_i = best_ms([&] {
      fallback.zero_grad();
      Tensor dx = fallback.backward(g);
      benchmark::DoNotOptimize(dx.data());
    });

    // Bitwise identity across the whole layer contract.
    bool same = true;
    {
      const Tensor yd = direct.forward(x, nn::Mode::Eval);
      const Tensor yi = fallback.forward(x, nn::Mode::Eval);
      same &= std::memcmp(yd.data(), yi.data(),
                          yd.numel() * sizeof(float)) == 0;
      direct.zero_grad();
      fallback.zero_grad();
      const Tensor dxd = direct.backward(g);
      const Tensor dxi = fallback.backward(g);
      same &= std::memcmp(dxd.data(), dxi.data(),
                          dxd.numel() * sizeof(float)) == 0;
      const auto gd = direct.gradients();
      const auto gi = fallback.gradients();
      for (std::size_t p = 0; p < gd.size(); ++p) {
        same &= std::memcmp(gd[p]->data(), gi[p]->data(),
                            gd[p]->numel() * sizeof(float)) == 0;
      }
    }
    all_identical &= same;

    const double fwd_speedup = fwd_i / fwd_d;
    const double bwd_speedup = bwd_i / bwd_d;
    if (c.magnet_same3x3) {
      min_same3x3_fwd = std::min(min_same3x3_fwd, fwd_speedup);
    }

    char row[512];
    std::snprintf(
        row, sizeof(row),
        "%s    {\"name\": \"%s\", \"magnet_same3x3\": %d, \"identity\": %d,\n"
        "     \"fwd_ms_direct\": %.4f, \"fwd_ms_im2col\": %.4f, "
        "\"fwd_speedup\": %.2f,\n"
        "     \"bwd_ms_direct\": %.4f, \"bwd_ms_im2col\": %.4f, "
        "\"bwd_speedup\": %.2f}",
        rows.empty() ? "" : ",\n", c.name, c.magnet_same3x3 ? 1 : 0,
        same ? 1 : 0, fwd_d, fwd_i, fwd_speedup, bwd_d, bwd_i, bwd_speedup);
    rows += row;
    std::printf(
        "BENCH_conv %-18s fwd %.2fx (%.3f -> %.3f ms)  bwd %.2fx  "
        "identity %d\n",
        c.name, fwd_speedup, fwd_i, fwd_d, bwd_speedup, same ? 1 : 0);
  }
  const std::uint64_t direct_hits =
      conv_counter("conv/direct_hits") - direct_hits0;
  const std::uint64_t im2col_fallback =
      conv_counter("conv/im2col_fallback") - im2col0;
  std::fprintf(f,
               "  \"identity\": %d,\n"
               "  \"min_same3x3_fwd_speedup\": %.2f,\n"
               "  \"counters\": {\"conv/direct_hits\": %llu, "
               "\"conv/im2col_fallback\": %llu},\n"
               "  \"cases\": [\n%s\n  ]\n}\n",
               all_identical ? 1 : 0, min_same3x3_fwd,
               static_cast<unsigned long long>(direct_hits),
               static_cast<unsigned long long>(im2col_fallback),
               rows.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// Float-vs-int8 A/B (BENCH_int8.json): the quantized GEMM kernel against
/// the float one on the attacked classifier's forward shapes (the im2row
/// products and the fc head — the shapes int8 serving (--quant) actually
/// runs), plus a whole-model quantized-vs-float forward. Records which
/// int8 kernel the build dispatched to and whether it accumulates exactly
/// (AVX2 maddubs saturates; VNNI and scalar do not). tools/ci.sh gates
/// min_clf_gemm_speedup >= 2.
void write_int8_json(const char* path) {
  struct Case {
    const char* name;
    std::size_t m, k, n;
    // Cases in min_clf_gemm_speedup (the ci.sh >= 2x gate). conv1's k = 9
    // panel is memory-bound — 288 multiply-adds per 64-byte C row leave
    // the dot-product units idle, so its ratio hovers right at 2x and
    // would make the gate a coin flip. It stays reported (same precedent
    // as the im2col-fallback conv rows above) but only the compute-bound
    // shapes are gated.
    bool gated;
  };
  const Case cases[] = {
      {"clf_conv1_as_gemm", 25088, 9, 16, false},  // 32 x [1,28,28] im2row
      {"clf_conv2_as_gemm", 6272, 144, 32, true},  // 32 x [16,14,14] im2row
      {"clf_fc", 256, 3136, 10, true},             // serving-batch fc head
  };
  constexpr int kReps = 5;

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"unit\": \"GFLOP/s\",\n  \"threads\": %zu,\n"
               "  \"kernel\": \"%s\",\n  \"exact\": %d,\n",
               ThreadPool::global().thread_count(), gemm_int8_kernel_name(),
               gemm_int8_exact() ? 1 : 0);

  double min_speedup = 1e30;
  std::string rows;
  for (const Case& c : cases) {
    const double f32 = gemm_gflops(c.m, c.k, c.n, kReps);

    // Value patterns are irrelevant to int8 throughput; a cheap
    // deterministic fill keeps the A/B reproducible without an RNG pass.
    std::vector<std::uint8_t> a(c.m * c.k);
    std::vector<std::int8_t> b(c.k * c.n);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xFF);
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::int8_t>(static_cast<int>((i * 53 + 7) % 255) -
                                      127);
    }
    std::vector<std::int8_t> packed(packed_b_int8_size(c.k, c.n));
    pack_b_s8(b.data(), c.k, c.n, packed.data());
    std::vector<std::int32_t> acc(c.m * c.n);

    gemm_u8s8_packed(a.data(), packed.data(), acc.data(), c.m, c.k, c.n);
    double best_s = 1e30;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      gemm_u8s8_packed(a.data(), packed.data(), acc.data(), c.m, c.k, c.n);
      const auto t1 = std::chrono::steady_clock::now();
      best_s =
          std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    benchmark::DoNotOptimize(acc.data());
    const double i8 = 2.0 * static_cast<double>(c.m) *
                      static_cast<double>(c.k) * static_cast<double>(c.n) /
                      best_s / 1e9;
    const double speedup = i8 / f32;
    if (c.gated) min_speedup = std::min(min_speedup, speedup);

    char row[384];
    std::snprintf(row, sizeof(row),
                  "%s    {\"name\": \"%s\", \"m\": %zu, \"k\": %zu, "
                  "\"n\": %zu, \"gflops_f32\": %.2f, \"gops_int8\": %.2f, "
                  "\"speedup\": %.2f, \"gated\": %s}",
                  rows.empty() ? "" : ",\n", c.name, c.m, c.k, c.n, f32, i8,
                  speedup, c.gated ? "true" : "false");
    rows += row;
    std::printf("BENCH_int8 %-18s %6zux%5zux%3zu  f32 %7.2f  int8 %7.2f  "
                "%.2fx%s\n",
                c.name, c.m, c.k, c.n, f32, i8, speedup,
                c.gated ? "" : "  (reported, not gated)");
  }

  // Whole-model A/B: the small classifier quantized against itself. The
  // int8 arm pays quantize/dequantize at every boundary, so its speedup
  // is a lower bound on what the GEMM ratio promises.
  Rng mrng(10);
  nn::Sequential model = small_classifier(mrng);
  Rng xrng(13);
  Tensor x({64, 1, 28, 28});
  fill_uniform(x, xrng, 0.0f, 1.0f);
  nn::Sequential qmodel = quant::quantize(model, x);
  const auto best_ms = [&](nn::Sequential& m) {
    m.forward(x, nn::Mode::Infer);  // warmup
    double best_s = 1e30;
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      Tensor y = m.forward(x, nn::Mode::Infer);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(y.data());
      best_s =
          std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    }
    return best_s * 1e3;
  };
  const double fwd_f32 = best_ms(model);
  const double fwd_i8 = best_ms(qmodel);
  const Tensor yf = model.forward(x, nn::Mode::Infer);
  const Tensor yq = qmodel.forward(x, nn::Mode::Infer);
  double max_err = 0.0;
  for (std::size_t i = 0; i < yf.numel(); ++i) {
    max_err = std::max(
        max_err, static_cast<double>(std::abs(yf.data()[i] - yq.data()[i])));
  }

  std::fprintf(f,
               "  \"min_clf_gemm_speedup\": %.2f,\n"
               "  \"model_fwd_ms_float\": %.4f,\n"
               "  \"model_fwd_ms_int8\": %.4f,\n"
               "  \"model_fwd_speedup\": %.2f,\n"
               "  \"model_logit_max_abs_err\": %.5f,\n"
               "  \"cases\": [\n%s\n  ]\n}\n",
               min_speedup, fwd_f32, fwd_i8, fwd_f32 / fwd_i8, max_err,
               rows.c_str());
  std::fclose(f);
  std::printf(
      "BENCH_int8 model fwd  f32 %.3f ms  int8 %.3f ms  %.2fx  "
      "max |dlogit| %.4f  (min gemm speedup %.2fx, kernel %s)\n",
      fwd_f32, fwd_i8, fwd_f32 / fwd_i8, max_err, min_speedup,
      gemm_int8_kernel_name());
  std::printf("wrote %s\n", path);
}

/// End-to-end active-set engine A/B: one full EAD run (kappa = 15, the
/// paper's high-confidence setting) over a synthetic MNIST-like batch,
/// with row compaction + workspace reuse ON vs OFF. Early abort is enabled
/// in BOTH arms, so the optimization schedule is identical and the ratio
/// isolates the engine: compacted model passes and recycled activations.
/// Writes images/sec per arm, the speedup, and passes_saved to
/// BENCH_attack_engine.json; tools/ci.sh gates on speedup >= 2.
void write_attack_engine_json(const char* path) {
  constexpr std::size_t kImages = 32;
  Rng rng(9);
  Tensor x({kImages, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);

  // Easy rows plateau and retire early; hard rows run to the iteration
  // cap — the spread is what compaction converts into wall-clock.
  attacks::EadConfig cfg;
  cfg.beta = 1e-2f;
  cfg.kappa = 15.0f;
  cfg.iterations = 100;
  cfg.binary_search_steps = 3;
  cfg.initial_c = 1.0f;
  cfg.learning_rate = 0.2f;
  cfg.use_fista = true;
  cfg.abort_early_window = 10;
  cfg.abort_early_rel_tol = 1e-3f;

  // Both arms attack identically-seeded models on identical labels
  // (argmax of the clean batch), so the work differs only in engine mode.
  auto run_arm = [&](bool engine_on) {
    Rng mrng(10);
    nn::Sequential m = small_classifier(mrng);
    // Scale the head so kappa = 15 is reachable: rows then succeed and
    // plateau at different iterations, which is what compaction exploits.
    scale_inplace(*m.parameters()[2], 6.0f);
    m.set_workspace_enabled(engine_on);
    cfg.compact = engine_on;
    const Tensor logits = m.forward(x, nn::Mode::Infer);
    std::vector<int> labels(kImages);
    for (std::size_t i = 0; i < kImages; ++i) {
      labels[i] = static_cast<int>(argmax_row(logits, i));
    }
    const attacks::EadAttack attack(cfg);
    attacks::ObliviousTarget target(m);
    attack.run(target, x, labels);  // warmup (pool + pages)
    const auto t0 = std::chrono::steady_clock::now();
    const attacks::AttackResult r = attack.run(target, x, labels);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(r.adversarial.data());
    return std::chrono::duration<double>(t1 - t0).count();
  };

  std::uint64_t passes_saved = 0;
  const std::uint64_t saved0 =
      obs::enabled()
          ? obs::MetricsRegistry::global().counter("attack/ead/passes_saved")
                .value()
          : 0;
  const double t_on = run_arm(true);
  if (obs::enabled()) {
    // Delta over the timed arm (plus its warmup; per-run savings are half).
    passes_saved =
        (obs::MetricsRegistry::global().counter("attack/ead/passes_saved")
             .value() -
         saved0) /
        2;
  }
  const double t_off = run_arm(false);

  const double ips_on = static_cast<double>(kImages) / t_on;
  const double ips_off = static_cast<double>(kImages) / t_off;
  const double speedup = t_off / t_on;

  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"attack\": \"ead\",\n  \"kappa\": %.0f,\n"
               "  \"images\": %zu,\n  \"threads\": %zu,\n"
               "  \"images_per_sec_engine_on\": %.3f,\n"
               "  \"images_per_sec_engine_off\": %.3f,\n"
               "  \"passes_saved\": %llu,\n"
               "  \"speedup\": %.2f\n}\n",
               static_cast<double>(cfg.kappa), kImages,
               ThreadPool::global().thread_count(), ips_on, ips_off,
               static_cast<unsigned long long>(passes_saved), speedup);
  std::fclose(f);
  std::printf(
      "BENCH_attack_engine ead k=%.0f  on: %.2f img/s  off: %.2f img/s  "
      "saved %llu passes  speedup %.2fx\n",
      static_cast<double>(cfg.kappa), ips_on, ips_off,
      static_cast<unsigned long long>(passes_saved), speedup);
  std::printf("wrote %s\n", path);
}

/// Drives a few instrumented forward/backward passes of the small
/// classifier so BENCH_layers.json carries per-layer timings even when the
/// benchmark filter skips the model-level cases. No-op when adv::obs is
/// compiled out or pinned off via ADV_OBS=0.
void emit_layer_metrics(const char* path) {
  if (!obs::kCompiledIn || !obs::enabled()) return;
  Rng rng(8);
  nn::Sequential m = small_classifier(rng);
  Tensor x({8, 1, 28, 28});
  fill_uniform(x, rng, 0.0f, 1.0f);
  Tensor g({8, 10});
  fill_uniform(g, rng, -1.0f, 1.0f);
  for (int i = 0; i < 3; ++i) {
    m.forward(x, nn::Mode::Eval);
    m.backward(g);
  }
  // Per-layer timings plus the conv path metrics (per-shape
  // conv/<shape>/{direct,im2col} timers and the direct_hits /
  // im2col_fallback counters) in one dump.
  auto samples = obs::MetricsRegistry::global().snapshot("conv/");
  const auto layers = obs::MetricsRegistry::global().snapshot("layer/");
  samples.insert(samples.end(), layers.begin(), layers.end());
  const std::string json = obs::samples_to_json(samples);
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "micro_benchmarks: cannot write %s\n", path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Benchmarks measure the instrumented production paths; ADV_OBS=0 in the
  // environment pins observation off for overhead A/B runs.
  if (!adv::obs::enabled_pinned_by_env()) adv::obs::set_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_gemm_json("BENCH_gemm.json");
  write_conv_json("BENCH_conv.json");
  write_int8_json("BENCH_int8.json");
  write_attack_engine_json("BENCH_attack_engine.json");
  emit_layer_metrics("BENCH_layers.json");
  return 0;
}
