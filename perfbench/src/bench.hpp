// Shared plumbing for the perfbench workloads: options, the result record
// every workload fills, timing and order statistics, the benchmark-side
// span log used by traced runs, and the bitwise output comparisons.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "magnet/pipeline.hpp"
#include "obs/metrics.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;    // benchmark-side spans + per-layer replays
  bool probe = false;    // one set-up, minimal load, no replays: a traced
                         // run's measure of a layer its workload skips
  std::string span_out;  // where a traced run writes its spans (JSON)
};

/// Set-up repetitions per run (one for a probe); setup_s is their median.
constexpr std::size_t kSetups = 5;
inline std::size_t setups(const Options& opt) {
  return opt.probe ? 1 : kSetups;
}

/// What one workload run reports. `e2e` holds the end-to-end metrics, which
/// every workload reports under the same names; `layer` holds per-layer
/// metrics (traced runs only).
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
};

/// Phase times of one set-up. first_result_ms runs from the built pipeline
/// to the workload's first useful result: the daemon's first reply (serve),
/// the first defended batch (eval), the loaded attack set (attack).
struct SetupTimes {
  double total_s = 0, dataset_s = 0, models_s = 0, build_magnet_s = 0,
         first_result_ms = 0;
};

/// Reports setup_s, the median total over `times` (an odd count), and,
/// when tracing, the phase times of that median set-up (core.*).
void report_setups(std::vector<SetupTimes> times, bool trace, Report& report);

/// Linearly interpolated quantile of `v`, q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Median over `windows` consecutive slices of `v` of each slice's
/// q-quantile: a slow spell of the host shorter than half the run cannot
/// move it.
inline double windowed_quantile(const std::vector<double>& v, double q,
                                std::size_t windows) {
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = v.size() * w / windows;
    const std::size_t hi = v.size() * (w + 1) / windows;
    if (lo == hi) continue;
    per_window.push_back(quantile(
        {v.begin() + static_cast<long>(lo), v.begin() + static_cast<long>(hi)},
        q));
  }
  return median(std::move(per_window));
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Deterministic permutation of [0, n) from `seed`.
inline std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  adv::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_u64() % i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

/// Bitwise equality of two defense outcomes: predictions, rejections, and
/// every detector's name, threshold and per-row scores.
bool outcomes_identical(const adv::magnet::DefenseOutcome& a,
                        const adv::magnet::DefenseOutcome& b);

/// Counter/timer reads from the global obs registry, for before/after
/// deltas around a measured phase.
inline std::uint64_t counter(const std::string& key) {
  return adv::obs::MetricsRegistry::global().counter(key).value();
}
struct TimerSnap {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};
inline TimerSnap timer(const std::string& key) {
  auto& t = adv::obs::MetricsRegistry::global().timer(key);
  return {t.count(), t.total_ns()};
}
/// Mean milliseconds per recorded event between two snapshots.
inline double mean_ms(const TimerSnap& a, const TimerSnap& b) {
  const std::uint64_t n = b.count - a.count;
  return n == 0 ? 0.0 : 1e-6 * static_cast<double>(b.total_ns - a.total_ns) /
                            static_cast<double>(n);
}
inline double total_ms(const TimerSnap& a, const TimerSnap& b) {
  return 1e-6 * static_cast<double>(b.total_ns - a.total_ns);
}

/// Benchmark-side span log. Spans nest per thread; a span's self time is
/// its duration minus its direct children's durations. Disabled logs
/// record nothing and cost one branch per scope.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    long parent = -1;
    std::uint64_t request = 0;
  };

  static SpanLog& global();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  long begin(const char* name, std::uint64_t request);
  void end(long id);

  /// Mean self time (ms) per span of each name.
  std::map<std::string, double> mean_self_ms() const;
  /// Writes every span as JSON; returns false if the file cannot be opened.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t request = 0)
      : id_(SpanLog::global().enabled() ? SpanLog::global().begin(name, request)
                                        : -1) {}
  ~SpanScope() {
    if (id_ >= 0) SpanLog::global().end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  long id_;
};

// Workloads. Each fills `report`; failures of individual operations are
// counted, not thrown. Every workload reports the same end-to-end metrics:
// setup_s, op_p50_ms, op_p90_ms, items_per_s and result_share (ok_share is
// derived from the counts by run.py).
void run_serve(const Options& opt, Report& report);
void run_eval(const Options& opt, Report& report);
void run_attack(const Options& opt, Report& report);

/// Trains (or loads) every model the workloads use and builds the attack
/// set, so later timed runs only read the cache. Returns seconds spent.
double prepare_models();

}  // namespace perfbench
