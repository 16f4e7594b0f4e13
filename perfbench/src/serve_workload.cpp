// serve-mnist: the default MNIST MagNet (Full) behind an in-process
// ServeDaemon on a unix socket, driven by closed-loop ServeClients sending
// single-image requests from one caller (.d1) and from one caller per core
// (.d4 on a 4-core host), in alternating windows. Every response is
// compared bitwise against a serial classify of the same image on a
// separate pipeline instance. One operation is one request: op_p50_ms and
// op_p90_ms are round trips with one caller, items_per_s is the request
// rate with one caller per core, result_share the share of responses that
// accept the image and classify it correctly.
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "core/magnet_factory.hpp"
#include "layers.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using adv::Tensor;
using adv::core::DatasetId;
using adv::magnet::DefenseScheme;

// Windows per phase (one in a probe). Each window has at least kMinSamples
// round trips whatever --seconds says.
constexpr std::size_t kRounds = 10;
constexpr std::size_t kMinSamples = 1000;

/// One set-up of the serving stack: a fresh zoo reading the model cache,
/// the calibrated pipeline, and a started daemon that has answered.
struct ServeStack {
  std::unique_ptr<adv::core::ModelZoo> zoo;
  std::shared_ptr<adv::magnet::MagNetPipeline> pipe;
  std::unique_ptr<adv::serve::ServeDaemon> daemon;
};

std::string socket_path(std::size_t k) {
  // Relative to the working directory: the benchmark stays inside its
  // checkout, and the path stays short enough for sun_path.
  return ".bench_build/perfbench-" + std::to_string(::getpid()) + "-" +
         std::to_string(k) + ".sock";
}

ServeStack set_up(std::size_t k, const Tensor& probe, SetupTimes& t) {
  ServeStack s;
  const auto t0 = Clock::now();
  s.zoo = std::make_unique<adv::core::ModelZoo>(adv::core::scale_from_env());
  auto mark = Clock::now();
  s.zoo->dataset(DatasetId::Mnist);
  t.dataset_s = ms_since(mark) / 1000.0;
  mark = Clock::now();
  default_models(*s.zoo, DatasetId::Mnist);
  t.models_s = ms_since(mark) / 1000.0;
  mark = Clock::now();
  s.pipe = adv::core::build_magnet(*s.zoo, DatasetId::Mnist,
                                   adv::core::MagnetVariant::Default);
  t.build_magnet_s = ms_since(mark) / 1000.0;

  mark = Clock::now();
  adv::serve::ServeConfig cfg;
  cfg.socket_path = socket_path(k);
  auto pipe = s.pipe;
  s.daemon = std::make_unique<adv::serve::ServeDaemon>(
      [pipe]() -> std::shared_ptr<const adv::magnet::MagNetPipeline> {
        return pipe;
      },
      cfg);
  s.daemon->start();
  adv::serve::ServeClient client(cfg.socket_path);
  const auto resp = client.classify(probe, DefenseScheme::Full);
  if (!resp.ok) throw std::runtime_error("serve: first reply failed");
  t.first_result_ms = ms_since(mark);
  t.total_s = ms_since(t0) / 1000.0;
  return s;
}

/// Daemon-side registry counters (all zero when obs is off).
struct DaemonSnap {
  TimerSnap queue_wait, batch_forward;
  std::uint64_t batches = 0, rows = 0, requests = 0, errors = 0, shed = 0;

  static DaemonSnap now() {
    return {timer("serve/queue_wait"), timer("serve/batch_forward"),
            counter("serve/batches"),  counter("serve/batch_rows"),
            counter("serve/requests"), counter("serve/responses_error"),
            counter("serve/shed")};
  }
  /// Adds the interval [a, b] to this running total.
  void add(const DaemonSnap& a, const DaemonSnap& b) {
    queue_wait.count += b.queue_wait.count - a.queue_wait.count;
    queue_wait.total_ns += b.queue_wait.total_ns - a.queue_wait.total_ns;
    batch_forward.count += b.batch_forward.count - a.batch_forward.count;
    batch_forward.total_ns +=
        b.batch_forward.total_ns - a.batch_forward.total_ns;
    batches += b.batches - a.batches;
    rows += b.rows - a.rows;
    requests += b.requests - a.requests;
    errors += b.errors - a.errors;
    shed += b.shed - a.shed;
  }
};

/// One closed-loop phase (.d1 or .d4), accumulated over its windows.
struct Phase {
  std::vector<double> p90;     // one entry per window
  std::vector<double> rtt_ms;  // every round trip of every window
  double wall_s = 0;           // summed over windows
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t correct = 0;  // accepted and correctly classified
  DaemonSnap daemon;
};

/// Shared request state: the image order, the labels and the bitwise
/// references.
struct Requests {
  const Tensor& images;
  const std::vector<int>& labels;
  const std::vector<std::size_t>& order;
  const std::vector<adv::magnet::DefenseOutcome>& reference;
  std::atomic<std::uint64_t> next{0};  // request id; also picks the image
};

/// One window of a closed loop: `depth` clients, each on its own
/// connection with one request in flight, until `seconds` have passed and
/// at least kMinSamples round trips completed.
void run_window(Phase& phase, const std::string& socket, std::size_t depth,
                double seconds, Requests& req) {
  // Fresh connections, so each window gets new daemon handler threads.
  std::vector<adv::serve::ServeClient> clients;
  for (std::size_t c = 0; c < depth; ++c) clients.emplace_back(socket);
  std::vector<std::vector<double>> lat(depth);
  std::vector<std::uint64_t> bad(depth, 0), correct(depth, 0);
  std::atomic<std::uint64_t> done{0};
  const DaemonSnap d0 = DaemonSnap::now();
  const auto t0 = Clock::now();
  const auto until = t0 + std::chrono::duration<double>(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < depth; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < until || done.load() < kMinSamples) {
        const std::uint64_t id = req.next.fetch_add(1);
        const std::size_t img = req.order[id % req.order.size()];
        const Tensor row = req.images.slice_rows(img, img + 1);
        bool ok = false;
        const auto r0 = Clock::now();
        try {
          SpanScope span("serve.request", id);
          const auto resp = clients[c].classify(row, DefenseScheme::Full);
          ok = resp.ok && outcomes_identical(resp.outcome, req.reference[img]);
          if (ok && !resp.outcome.rejected[0] &&
              resp.outcome.predicted[0] == req.labels[img]) {
            ++correct[c];
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "serve: request failed: %s\n", e.what());
        }
        lat[c].push_back(ms_since(r0));
        if (!ok) ++bad[c];
        done.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall_s = ms_since(t0) / 1000.0;
  phase.daemon.add(d0, DaemonSnap::now());

  std::vector<double> window;
  for (std::size_t c = 0; c < depth; ++c) {
    window.insert(window.end(), lat[c].begin(), lat[c].end());
    phase.failed += bad[c];
    phase.correct += correct[c];
  }
  phase.attempted += window.size();
  phase.p90.push_back(quantile(window, 0.90));
  phase.wall_s += wall_s;
  phase.rtt_ms.insert(phase.rtt_ms.end(), window.begin(), window.end());
}

void report_phase_layers(const std::string& sfx, const Phase& p,
                         std::map<std::string, double>& layer) {
  const DaemonSnap& d = p.daemon;
  const double queue = mean_ms({}, d.queue_wait);
  const double forward = mean_ms({}, d.batch_forward);
  layer["serve.queue_wait_ms" + sfx] = queue;
  layer["serve.batch_forward_ms" + sfx] = forward;
  layer["serve.batch_rows" + sfx] =
      d.batches == 0 ? 0.0
                     : static_cast<double>(d.rows) /
                           static_cast<double>(d.batches);
  layer["serve.transport_ms" + sfx] = mean(p.rtt_ms) - queue - forward;
  layer["serve.requests" + sfx] = static_cast<double>(d.requests);
  layer["serve.errors" + sfx] = static_cast<double>(d.errors);
  layer["serve.shed" + sfx] = static_cast<double>(d.shed);
}

}  // namespace

void run_serve(const Options& opt, Report& report) {
  // Reference outcomes come from a separate zoo and pipeline instance,
  // computed serially before any daemon exists: classify is not reentrant,
  // so the daemon's pipeline must never be called from this thread.
  adv::core::ModelZoo ref_zoo(adv::core::scale_from_env());
  const auto ref_pipe = adv::core::build_magnet(
      ref_zoo, DatasetId::Mnist, adv::core::MagnetVariant::Default);
  const auto& test = ref_zoo.dataset(DatasetId::Mnist).test;
  const Tensor& images = test.images;
  const std::vector<int>& labels = test.labels;
  // Requests cycle through every test image in a seeded order, so
  // result_share reads the defended clean accuracy of the whole test set
  // whatever the seed.
  const std::vector<std::size_t> order = permutation(images.dim(0), opt.seed);
  std::vector<adv::magnet::DefenseOutcome> reference(images.dim(0));
  for (const std::size_t img : order) {
    reference[img] = ref_pipe->classify(images.slice_rows(img, img + 1),
                                        DefenseScheme::Full);
  }
  const Tensor probe = images.slice_rows(order[0], order[0] + 1);

  std::vector<SetupTimes> times;
  ServeStack stack;
  for (std::size_t k = 0; k < setups(opt); ++k) {
    if (stack.daemon) stack.daemon->stop();
    stack = {};
    SetupTimes t;
    stack = set_up(k, probe, t);
    times.push_back(t);
  }
  report_setups(times, opt.trace, report);

  const std::size_t depth_hi =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::string socket = stack.daemon->socket_path().string();
  Requests req{images, labels, order, reference};
  const LayerCounters c0 = LayerCounters::now();
  // The phases alternate window by window, so a slow spell of the host
  // lands on both. p90 is the median of the windows' p90s, which a spell
  // shorter than half the run cannot move; p50 and throughput pool every
  // window, since single windows of a 1-row closed loop differ by up to 30%
  // (intra-op thread hand-offs) and pooling averages that out.
  Phase d1, dn;
  for (std::size_t r = 0; r < (opt.probe ? 1 : kRounds); ++r) {
    run_window(d1, socket, 1, 0.4 * opt.seconds / kRounds, req);
    run_window(dn, socket, depth_hi, 0.6 * opt.seconds / kRounds, req);
  }
  const LayerCounters c1 = LayerCounters::now();
  stack.daemon->stop();

  report.attempted = d1.attempted + dn.attempted;
  report.failed = d1.failed + dn.failed;
  report.e2e["op_p50_ms"] = median(d1.rtt_ms);
  report.e2e["op_p90_ms"] = median(d1.p90);
  report.e2e["items_per_s"] =
      static_cast<double>(dn.rtt_ms.size()) / dn.wall_s;
  report.e2e["result_share"] =
      static_cast<double>(d1.correct + dn.correct) /
      static_cast<double>(report.attempted);
  std::fprintf(stderr,
               "serve-mnist: d1 %zu requests, p50 %.3f ms; d%zu %zu "
               "requests, p50 %.3f ms\n",
               d1.rtt_ms.size(), median(d1.rtt_ms), depth_hi,
               dn.rtt_ms.size(), median(dn.rtt_ms));

  if (!opt.trace) return;
  auto& layer = report.layer;
  report_phase_layers(".d1", d1, layer);
  report_phase_layers(".d4", dn, layer);
  c0.report(c1, report.attempted, layer);
  if (opt.probe) return;

  // Replays run after the daemon stopped: its pipeline is idle now.
  const Tensor one = images.slice_rows(order[0], order[0] + 1);
  const auto models = default_models(*stack.zoo, DatasetId::Mnist);
  replay_magnet(*stack.pipe, models[1], one, layer);
  replay_nn(*models[0], *models[1], one, layer);
}

}  // namespace perfbench
