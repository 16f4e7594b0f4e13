#include <cstdio>
#include <fstream>

#include "bench.hpp"
#include "core/magnet_factory.hpp"
#include "core/model_zoo.hpp"

namespace perfbench {

bool outcomes_identical(const adv::magnet::DefenseOutcome& a,
                        const adv::magnet::DefenseOutcome& b) {
  if (a.predicted != b.predicted || a.rejected != b.rejected ||
      a.readings.size() != b.readings.size()) {
    return false;
  }
  for (std::size_t d = 0; d < a.readings.size(); ++d) {
    const auto& ra = a.readings[d];
    const auto& rb = b.readings[d];
    if (ra.name != rb.name || ra.scores.size() != rb.scores.size()) {
      return false;
    }
    if (std::memcmp(&ra.threshold, &rb.threshold, sizeof(float)) != 0 ||
        std::memcmp(ra.scores.data(), rb.scores.data(),
                    ra.scores.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

void report_setups(std::vector<SetupTimes> times, bool trace,
                   Report& report) {
  std::sort(times.begin(), times.end(),
            [](const SetupTimes& a, const SetupTimes& b) {
              return a.total_s < b.total_s;
            });
  const SetupTimes& mid = times[times.size() / 2];
  report.e2e["setup_s"] = mid.total_s;
  if (!trace) return;
  report.layer["core.dataset_s"] = mid.dataset_s;
  report.layer["core.models_s"] = mid.models_s;
  report.layer["core.build_magnet_s"] = mid.build_magnet_s;
  report.layer["core.first_result_ms"] = mid.first_result_ms;
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<long> open_spans;
}  // namespace

long SpanLog::begin(const char* name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.start_ms = ms_since(origin_);
  s.parent = open_spans.empty() ? -1 : open_spans.back();
  s.request = request;
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(s));
  const long id = static_cast<long>(spans_.size()) - 1;
  open_spans.push_back(id);
  return id;
}

void SpanLog::end(long id) {
  const double t = ms_since(origin_);
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ms = t;
}

std::map<std::string, double> SpanLog::mean_self_ms() const {
  std::lock_guard lock(mu_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ms - spans_[i].start_ms;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, std::pair<double, std::size_t>> acc;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& a = acc[spans_[i].name];
    a.first += self[i];
    ++a.second;
  }
  std::map<std::string, double> out;
  for (const auto& [name, a] : acc) {
    out[name] = a.first / static_cast<double>(a.second);
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard lock(mu_);
  f << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.4f,"
                  "\"end_ms\":%.4f,\"parent\":%ld,\"request\":%llu}",
                  i, s.name.c_str(), s.start_ms, s.end_ms, s.parent,
                  static_cast<unsigned long long>(s.request));
    f << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]\n";
  return static_cast<bool>(f);
}

double prepare_models() {
  using adv::core::DatasetId;
  const auto t0 = Clock::now();
  adv::core::ModelZoo zoo(adv::core::scale_from_env());
  adv::core::build_magnet(zoo, DatasetId::Mnist,
                          adv::core::MagnetVariant::Default);
  adv::core::build_magnet(zoo, DatasetId::Cifar,
                          adv::core::MagnetVariant::Default);
  zoo.attack_set(DatasetId::Mnist);
  return ms_since(t0) / 1000.0;
}

}  // namespace perfbench
