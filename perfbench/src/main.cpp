// perfbench: the benchmark's measuring binary.
//
//   perfbench prepare
//       Trains (or loads) every model the workloads use into the cache
//       named by REPRO_CACHE_DIR, and prints the seconds it took.
//   perfbench run --workload <serve-mnist|eval-cifar|attack-ead>
//                 --seed <n> --seconds <s> [--trace 0|1] [--spans <file>]
//                 [--commit <id>]
//       Runs one workload and prints, as its last stdout line, one JSON
//       object: attempted/failed operation counts, end-to-end metrics
//       ("e2e"), per-layer metrics ("layer", with --trace 1) and a stamp
//       of the ISA, core count, intra-op thread count, scale and commit.
//       With --trace 1 the serve and attack layers are measured on every
//       workload: by the workload itself where it drives them, otherwise
//       by a probe (one set-up and the least load of the workload that
//       does).
//
// perfbench/run.py builds this binary and drives it; see README.md there.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "bench.hpp"
#include "tensor/thread_pool.hpp"

namespace {

using namespace perfbench;

const char* isa() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512vnni")) return "avx512-vnni";
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  if (__builtin_cpu_supports("sse4.2")) return "sse4.2";
  return "baseline";
}

void print_map(const std::map<std::string, double>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::printf("}");
}

using Runner = void (*)(const Options&, Report&);

Runner runner(const std::string& workload) {
  if (workload == "serve-mnist") return run_serve;
  if (workload == "eval-cifar") return run_eval;
  if (workload == "attack-ead") return run_attack;
  return nullptr;
}

/// Per-layer families that only one workload drives, and that workload.
constexpr std::pair<const char*, const char*> kProbes[] = {
    {"serve.", "serve-mnist"}, {"attack.", "attack-ead"}};

/// Fills the probed families the traced workload does not drive. Probe
/// operations count as attempted, and their failed output checks as
/// failed.
void probe_layers(const Options& opt, Report& report) {
  for (const auto& [prefix, workload] : kProbes) {
    if (opt.workload == workload) continue;
    Options p = opt;
    p.workload = workload;
    p.probe = true;
    p.seconds = 1e-3;
    Report r;
    runner(workload)(p, r);
    report.attempted += r.attempted;
    report.failed += r.failed;
    for (const auto& [key, value] : r.layer) {
      if (key.rfind(prefix, 0) == 0) report.layer[key] = value;
    }
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare\n"
               "       perfbench run --workload <name> --seed <n> "
               "--seconds <s> [--trace 0|1] [--spans <file>] "
               "[--commit <id>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "prepare") {
    try {
      std::printf("{\"prepare_s\":%.6f}\n", prepare_models());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: prepare failed: %s\n", e.what());
      return 1;
    }
    return 0;
  }
  if (mode != "run" || argc % 2 != 0) return usage();

  Options opt;
  std::string commit = "unknown";
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") opt.trace = std::strcmp(val, "1") == 0;
    else if (key == "--spans") opt.span_out = val;
    else if (key == "--commit") commit = val;
    else return usage();
  }
  if (opt.seconds <= 0) return usage();
  SpanLog::global().enable(opt.trace);

  const Runner run = runner(opt.workload);
  if (run == nullptr) return usage();
  Report report;
  try {
    run(opt, report);
    if (opt.trace) probe_layers(opt, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  if (opt.trace && !opt.span_out.empty() &&
      !SpanLog::global().write_json(opt.span_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", opt.span_out.c_str());
  }

  std::printf(
      "{\"workload\":\"%s\",\"attempted\":%llu,\"failed\":%llu,\"e2e\":",
              opt.workload.c_str(),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  print_map(report.e2e);
  std::printf(",\"layer\":");
  print_map(report.layer);
  std::printf(
      ",\"stamp\":{\"isa\":\"%s\",\"nproc\":%u,\"threads\":%zu,"
      "\"scale\":\"%s\",\"commit\":\"%s\",\"obs\":%s}}\n",
      isa(), std::thread::hardware_concurrency(),
      adv::ThreadPool::global().thread_count(),
      adv::core::scale_from_env().tag().c_str(),
      commit.c_str(), adv::obs::enabled() ? "true" : "false");
  return 0;
}
