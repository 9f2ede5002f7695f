#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double RefLoopMs() {
  // A dependent multiply-xorshift chain: no memory traffic, no
  // vectorisation, the same instruction count on every call.
  const Clock::time_point start = Clock::now();
  volatile uint64_t sink = 0;
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 30'000'000; ++i) {
    x ^= x >> 12;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  sink = x;
  (void)sink;
  return SecondsSince(start) * 1e3;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kOurs:
      return "ours";
    case PlanKind::kHive:
      return "hive";
    case PlanKind::kPig:
      return "pig";
    case PlanKind::kYSmart:
      return "ysmart";
  }
  return "?";
}

Tally::Tally(int num_shapes)
    : calls_(num_shapes, std::vector<std::vector<double>>(kNumPlanKinds)),
      measured_(num_shapes, std::vector<std::vector<double>>(kNumPlanKinds)) {}

void Tally::AddOperation(int shape, PlanKind kind, double call_s,
                         const mrtheta::QueryResult* result, bool mismatch) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (result == nullptr || mismatch) {
    ++failed_;
    mismatch_ = mismatch_ || mismatch;
    return;
  }
  const int k = static_cast<int>(kind);
  calls_[shape][k].push_back(call_s);
  measured_[shape][k].push_back(result->measured_seconds());
  if (kind != PlanKind::kOurs) baseline_calls_.push_back(call_s);
  measured_s += result->measured_seconds();
  call_minus_measured_s += call_s - result->measured_seconds();
  for (const mrtheta::JobExecution& job : result->jobs()) {
    map_records += static_cast<double>(job.metrics.map_output_records_physical);
    for (double c : job.metrics.reduce_comparisons_logical) {
      reduce_comparisons += c;
    }
    output_rows += static_cast<double>(job.metrics.output_rows_physical);
  }
}

void Tally::AddEngineDelta(const mrtheta::EngineMetrics& before,
                           const mrtheta::EngineMetrics& after) {
  std::lock_guard<std::mutex> lock(mu_);
  engine_delta.plans += after.plans - before.plans;
  engine_delta.plan_cache_hits += after.plan_cache_hits - before.plan_cache_hits;
  engine_delta.spill_bytes += after.spill_bytes - before.spill_bytes;
  engine_delta.spill_files += after.spill_files - before.spill_files;
}

void Tally::AddRounds(double rounds) {
  std::lock_guard<std::mutex> lock(mu_);
  rounds_ += rounds;
}

void Tally::AddPhaseSeconds(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  phase_seconds_ += seconds;
}

double Tally::ShapeQuantileGeomean(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> per_shape;
  for (const auto& per_kind : calls_) {
    const auto& ours = per_kind[static_cast<int>(PlanKind::kOurs)];
    if (!ours.empty()) per_shape.push_back(Quantile(ours, q));
  }
  return Geomean(per_shape);
}

double Tally::OursLatencyQuantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> all;
  for (const auto& per_kind : calls_) {
    const auto& ours = per_kind[static_cast<int>(PlanKind::kOurs)];
    all.insert(all.end(), ours.begin(), ours.end());
  }
  return Quantile(std::move(all), q);
}

double Tally::OpsPerSecond() const {
  std::lock_guard<std::mutex> lock(mu_);
  return phase_seconds_ > 0.0
             ? static_cast<double>(attempted_ - failed_) / phase_seconds_
             : 0.0;
}

double Tally::MedianMeasured(int shape, PlanKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Median(measured_[shape][static_cast<int>(kind)]);
}

SpanFold::SpanFold(const std::vector<mrtheta::TraceEvent>& events,
                   double from_us, double to_us) {
  for (const mrtheta::TraceEvent& ev : events) {
    if (ev.ts_us >= from_us && ev.ts_us < to_us) events_.push_back(&ev);
  }
}

double SpanFold::SumSeconds(const char* name) const {
  double us = 0.0;
  for (const mrtheta::TraceEvent* ev : events_) {
    if (std::strcmp(ev->name, name) == 0) us += ev->dur_us;
  }
  return us * 1e-6;
}

std::vector<double> SpanFold::DurationsMs(const char* name) const {
  std::vector<double> out;
  for (const mrtheta::TraceEvent* ev : events_) {
    if (std::strcmp(ev->name, name) == 0) out.push_back(ev->dur_us * 1e-3);
  }
  return out;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string MetricSet::ToJson(bool correct, int64_t attempted,
                              int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    const double v = std::isfinite(items_[i].second.first)
                         ? items_[i].second.first
                         : 0.0;
    std::snprintf(buf, sizeof buf, "%.10g", v);
    out += (i == 0 ? "\"" : ", \"") + items_[i].first + "\": {\"value\": " +
           buf + ", \"unit\": \"" + items_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
