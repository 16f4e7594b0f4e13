// serve_daemon: standalone defended-inference daemon (adv::serve).
//
// Binds the unix socket immediately and loads the requested MagNet
// variant lazily through the self-healing ModelZoo on the first request
// (a corrupt cached model is quarantined and retrained instead of taking
// the daemon down; until the load succeeds, requests get error
// responses). Stop with SIGINT/SIGTERM — the daemon drains in-flight
// batches, answers everything queued, and removes the socket.
//
//   serve_daemon --socket PATH [--dataset mnist|cifar]
//                [--variant default|jsd|wide|wide-jsd]
//                [--max-batch N] [--deadline-us N]
//                [--max-queue-rows N] [--watchdog-ms N] [--quant]
//
// --max-queue-rows bounds the admission queue (requests past it are shed
// with Overloaded); --watchdog-ms > 0 arms the batch watchdog (a stuck
// forward pass fails its batch and the daemon keeps serving). --quant
// serves the int8 pipeline (MagNetPipeline::quantized, calibrated on
// core::quant_calibration) instead of the float one, for every request;
// detector thresholds stay float-calibrated (DESIGN.md §17). See
// DESIGN.md §15 and serve/batcher.hpp.
//
// Talk to it with serve::ServeClient (bench/serve_bench.cpp is the
// reference driver). REPRO_SCALE / REPRO_CACHE_DIR select the model scale
// and cache as everywhere else; ADV_OBS=1 enables the serve/* counters.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/magnet_factory.hpp"
#include "core/model_zoo.hpp"
#include "serve/server.hpp"

using namespace adv;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--dataset mnist|cifar]\n"
               "          [--variant default|jsd|wide|wide-jsd]\n"
               "          [--max-batch N] [--deadline-us N]\n"
               "          [--max-queue-rows N] [--watchdog-ms N] [--quant]\n"
               "--quant serves every request on the int8 pipeline\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path socket_path;
  core::DatasetId dataset = core::DatasetId::Mnist;
  core::MagnetVariant variant = core::MagnetVariant::Default;
  bool quant = false;
  serve::ServeConfig cfg;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--socket" && val) {
      socket_path = val;
      ++i;
    } else if (arg == "--dataset" && val) {
      const std::string v = val;
      if (v == "mnist") {
        dataset = core::DatasetId::Mnist;
      } else if (v == "cifar") {
        dataset = core::DatasetId::Cifar;
      } else {
        return usage(argv[0]);
      }
      ++i;
    } else if (arg == "--variant" && val) {
      const std::string v = val;
      if (v == "default") {
        variant = core::MagnetVariant::Default;
      } else if (v == "jsd") {
        variant = core::MagnetVariant::Jsd;
      } else if (v == "wide") {
        variant = core::MagnetVariant::Wide;
      } else if (v == "wide-jsd") {
        variant = core::MagnetVariant::WideJsd;
      } else {
        return usage(argv[0]);
      }
      ++i;
    } else if (arg == "--max-batch" && val) {
      cfg.batch.max_batch_rows = static_cast<std::size_t>(std::atol(val));
      ++i;
    } else if (arg == "--deadline-us" && val) {
      cfg.batch.flush_deadline = std::chrono::microseconds(std::atol(val));
      ++i;
    } else if (arg == "--max-queue-rows" && val) {
      cfg.batch.max_queue_rows = static_cast<std::size_t>(std::atol(val));
      ++i;
    } else if (arg == "--watchdog-ms" && val) {
      cfg.batch.watchdog_timeout = std::chrono::milliseconds(std::atol(val));
      ++i;
    } else if (arg == "--quant") {
      quant = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() || cfg.batch.max_batch_rows == 0 ||
      cfg.batch.max_queue_rows == 0) {
    return usage(argv[0]);
  }
  cfg.socket_path = socket_path;

  // Block the shutdown signals before any thread exists so every thread
  // the daemon spawns inherits the mask and sigwait() below is the only
  // consumer.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  auto zoo = std::make_shared<core::ModelZoo>(core::scale_from_env());
  serve::ServeDaemon daemon(
      [zoo, dataset, variant, quant]()
          -> std::shared_ptr<const magnet::MagNetPipeline> {
        auto pipe = core::build_magnet(*zoo, dataset, variant);
        if (!quant) return pipe;
        return pipe->quantized(core::quant_calibration(*zoo, dataset));
      },
      cfg);
  daemon.start();
  std::printf(
      "serve_daemon: %s MagNet %s on %s (max-batch %zu, deadline %lld us, "
      "queue %zu rows, watchdog %lld ms, exec %s)\n",
      core::to_string(dataset), core::to_string(variant), socket_path.c_str(),
      cfg.batch.max_batch_rows,
      static_cast<long long>(cfg.batch.flush_deadline.count()),
      cfg.batch.max_queue_rows,
      static_cast<long long>(cfg.batch.watchdog_timeout.count()),
      quant ? "int8" : "float");
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("serve_daemon: signal %d, draining\n", sig);
  daemon.stop();
  return 0;
}
