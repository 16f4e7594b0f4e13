// Float -> int8 attack-transfer study (DESIGN.md §17): adversarial
// examples are crafted with full-precision gradients against the FLOAT
// defended pipeline (the only gradients an attacker can take — the int8
// path has no backward), then replayed through the float pipeline AND its
// int8 twin (MagNetPipeline::quantized, which shares the detectors). For
// every attack x defense-scheme cell the bench reports the attack success
// rate under float and int8 execution and their delta, plus the
// per-detector mean |score drift| the quantized models induce — the
// quantity that says whether the float-calibrated thresholds are still
// meaningful on the int8 path.
//
// Emits BENCH_quant_transfer.json (gauges under qtransfer/):
//   qtransfer/mnist/<attack>/<scheme>/asr_float_pct | asr_int8_pct |
//     asr_delta_pct            (delta = int8 - float)
//   qtransfer/mnist/<attack>/drift/<detector>        (mean |s_f - s_i|)
//   qtransfer/mnist/clean_top1_{float,int8,drift}_pct (undefended
//     classifier on the test split — the ci.sh <= 0.5% drift gate)
//   qtransfer/int8_exact (0 on AVX2-maddubs builds, where the kernel
//     saturates and the accuracy story is not certified)
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/emit.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm_int8.hpp"

using namespace adv;

namespace {

constexpr magnet::DefenseScheme kSchemes[] = {
    magnet::DefenseScheme::None, magnet::DefenseScheme::DetectorOnly,
    magnet::DefenseScheme::ReformerOnly, magnet::DefenseScheme::Full};

const char* scheme_key(magnet::DefenseScheme s) {
  switch (s) {
    case magnet::DefenseScheme::None: return "none";
    case magnet::DefenseScheme::DetectorOnly: return "detector";
    case magnet::DefenseScheme::ReformerOnly: return "reformer";
    case magnet::DefenseScheme::Full: return "full";
  }
  return "?";
}

/// Accuracy (%) of the pipeline on `images` under one scheme: a row
/// counts iff no detector rejected it AND the (possibly reformed)
/// prediction matches. ASR is its complement.
float defended_acc_pct(const magnet::MagNetPipeline& pipe,
                       const Tensor& images, const std::vector<int>& labels,
                       magnet::DefenseScheme scheme) {
  const magnet::DefenseOutcome out = pipe.classify(images, scheme);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (!out.rejected[i] && out.predicted[i] == labels[i]) ++correct;
  }
  return 100.0f * static_cast<float>(correct) /
         static_cast<float>(labels.size());
}

void transfer_block(core::ModelZoo& zoo, core::DatasetId id, float kappa) {
  auto& reg = obs::MetricsRegistry::global();
  const auto pipe = core::build_magnet(zoo, id, core::MagnetVariant::Default);
  const auto qpipe = pipe->quantized(core::quant_calibration(zoo, id));
  const auto& labels = zoo.attack_set(id).labels;
  const std::string ds = core::to_string(id);

  struct Crafted {
    const char* name;
    attacks::AttackResult result;
  };
  // Float-crafted (oblivious, undefended classifier — the zoo cache these
  // other tables already paid for): the paper's L1 attack, the L2
  // baseline, and the fast-gradient family.
  const Crafted crafted[] = {
      {"ead", zoo.ead(id, 1e-2f, kappa, attacks::DecisionRule::L1)},
      {"cw-l2", zoo.cw(id, kappa)},
      {"ifgsm", zoo.fgsm(id, 0.1f, 10)},
  };

  std::printf("%-7s %-9s  ASR%% float  ASR%% int8   delta\n", "attack",
              "scheme");
  for (const Crafted& c : crafted) {
    const std::string base = "qtransfer/" + ds + "/" + c.name + "/";
    for (const magnet::DefenseScheme s : kSchemes) {
      const float asr_f =
          100.0f - defended_acc_pct(*pipe, c.result.adversarial, labels, s);
      const float asr_i =
          100.0f - defended_acc_pct(*qpipe, c.result.adversarial, labels, s);
      const std::string cell = base + scheme_key(s) + "/";
      reg.gauge(cell + "asr_float_pct").set(asr_f);
      reg.gauge(cell + "asr_int8_pct").set(asr_i);
      reg.gauge(cell + "asr_delta_pct").set(asr_i - asr_f);
      std::printf("%-7s %-9s  %9.1f  %9.1f  %+6.1f\n", c.name, scheme_key(s),
                  asr_f, asr_i, asr_i - asr_f);
    }
    // Per-detector score drift on the crafted batch: how far each int8
    // detector reading moves from the float one whose threshold it keeps.
    const magnet::DefenseOutcome of = pipe->classify(
        c.result.adversarial, magnet::DefenseScheme::DetectorOnly);
    const magnet::DefenseOutcome oi = qpipe->classify(
        c.result.adversarial, magnet::DefenseScheme::DetectorOnly);
    for (std::size_t d = 0; d < of.readings.size(); ++d) {
      double drift = 0.0;
      for (std::size_t i = 0; i < of.readings[d].scores.size(); ++i) {
        drift += std::abs(static_cast<double>(of.readings[d].scores[i]) -
                          static_cast<double>(oi.readings[d].scores[i]));
      }
      drift /= static_cast<double>(of.readings[d].scores.size());
      reg.gauge(base + "drift/" + of.readings[d].name).set(drift);
      std::printf("%-7s drift %-10s  mean |ds| = %.3g  (threshold %.3g)\n",
                  c.name, of.readings[d].name.c_str(), drift,
                  static_cast<double>(of.readings[d].threshold));
    }
  }

  // Clean top-1 drift of the undefended classifier on the test split —
  // the quantization-accuracy contract ci.sh gates at <= 0.5%.
  const auto& test = zoo.dataset(id).test;
  const float top1_f = defended_acc_pct(*pipe, test.images, test.labels,
                                        magnet::DefenseScheme::None);
  const float top1_i = defended_acc_pct(*qpipe, test.images, test.labels,
                                        magnet::DefenseScheme::None);
  reg.gauge("qtransfer/" + ds + "/clean_top1_float_pct").set(top1_f);
  reg.gauge("qtransfer/" + ds + "/clean_top1_int8_pct").set(top1_i);
  reg.gauge("qtransfer/" + ds + "/clean_top1_drift_pct")
      .set(std::abs(top1_f - top1_i));
  std::printf("clean top-1 (%zu test rows): float %.2f%%  int8 %.2f%%  "
              "drift %.2f%%\n",
              static_cast<std::size_t>(test.labels.size()), top1_f, top1_i,
              std::abs(top1_f - top1_i));
}

}  // namespace

int main(int argc, char** argv) {
  if (!obs::enabled_pinned_by_env()) obs::set_enabled(true);
  core::ShardedBench sb;
  sb.name = "table_quant_transfer";
  sb.warm = [](core::ModelZoo& zoo) {
    bench::warm_variants(zoo, core::DatasetId::Mnist,
                         {core::MagnetVariant::Default});
  };
  sb.body = [](core::ModelZoo& zoo) {
    std::printf("== Float -> int8 attack transfer (default MNIST MagNet) ==\n");
    std::printf("scale: %s\nint8 kernel: %s (exact=%d)\n",
                bench::scale_banner(zoo.scale()), gemm_int8_kernel_name(),
                gemm_int8_exact() ? 1 : 0);
    obs::MetricsRegistry::global()
        .gauge("qtransfer/int8_exact")
        .set(gemm_int8_exact() ? 1.0 : 0.0);
    const float kappa =
        bench::snap_kappa(zoo.scale(), core::DatasetId::Mnist, 0.0f);
    transfer_block(zoo, core::DatasetId::Mnist, kappa);
    if (obs::write_json("BENCH_quant_transfer.json", "qtransfer/")) {
      std::printf("wrote BENCH_quant_transfer.json\n");
    }
  };
  return core::shard_main(argc, argv, sb);
}
