// Shared plumbing of the benchmark: timing, summary statistics, the
// per-run tally every workload fills, span folding for the traced run and
// the result line.
#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/api/theta_engine.h"
#include "src/obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seed of one generator, derived from the run's --seed so that every
/// generator draws an independent stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Geomean(const std::vector<double>& values);

/// Milliseconds a fixed CPU-bound loop takes on this host right now.
double RefLoopMs();
/// ru_maxrss of this process in MiB.
double PeakRssMb();

/// Which plan an operation executed.
enum class PlanKind { kOurs, kHive, kPig, kYSmart };
inline constexpr int kNumPlanKinds = 4;
const char* PlanKindName(PlanKind kind);

/// Everything a timed phase records. Workloads add to it from several
/// client threads, so every mutation goes through Add* under the mutex.
class Tally {
 public:
  explicit Tally(int num_shapes);

  /// One finished operation. `call_s` runs from the call to the ready
  /// result; `result` is null when the operation failed. `mismatch` marks
  /// an operation whose output disagreed with the benchmark's checks.
  void AddOperation(int shape, PlanKind kind, double call_s,
                    const mrtheta::QueryResult* result, bool mismatch);
  /// Engine counter deltas over a span of the phase.
  void AddEngineDelta(const mrtheta::EngineMetrics& before,
                      const mrtheta::EngineMetrics& after);
  void AddRounds(double rounds);
  void AddPhaseSeconds(double seconds);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool mismatch() const { return mismatch_; }
  double rounds() const { return rounds_; }
  double phase_seconds() const { return phase_seconds_; }

  /// Geomean over shapes of the q-quantile of the call times of the
  /// engine's own plan (q = 0.5: the medians).
  double ShapeQuantileGeomean(double q) const;
  /// Quantile of the call times of the engine's own plan, over all shapes.
  double OursLatencyQuantile(double q) const;
  /// Completed operations of every plan kind per phase second.
  double OpsPerSecond() const;
  /// Median measured_seconds of one shape under one plan (0 if none).
  double MedianMeasured(int shape, PlanKind kind) const;
  /// Call times of the baseline plans' executions.
  const std::vector<double>& baseline_calls() const { return baseline_calls_; }

  // Per-round totals of the executed results.
  double measured_s = 0.0;       ///< Σ ExecutionResult::measured_seconds
  double call_minus_measured_s = 0.0;  ///< Σ (call − measured_seconds)
  double map_records = 0.0;      ///< Σ map_output_records_physical
  double reduce_comparisons = 0.0;  ///< Σ reduce_comparisons_logical
  double output_rows = 0.0;      ///< Σ output_rows_physical over jobs
  mrtheta::EngineMetrics engine_delta;  ///< summed counter deltas

 private:
  mutable std::mutex mu_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool mismatch_ = false;
  double rounds_ = 0.0;
  double phase_seconds_ = 0.0;
  /// [shape][plan kind] → call times and measured seconds.
  std::vector<std::vector<std::vector<double>>> calls_;
  std::vector<std::vector<std::vector<double>>> measured_;
  std::vector<double> baseline_calls_;
};

/// What the engine's own plan of one shape costs on the simulated cluster;
/// deterministic for a seed.
struct ShapeFacts {
  std::string name;
  double sim_makespan_s = 0.0;
  int64_t sim_shuffle_bytes = 0;
  int jobs = 0;
};

/// Spans of a Tracer inside a time window, folded by name.
class SpanFold {
 public:
  SpanFold(const std::vector<mrtheta::TraceEvent>& events, double from_us,
           double to_us);
  /// Σ duration (seconds) of spans named `name`.
  double SumSeconds(const char* name) const;
  /// Durations (milliseconds) of spans named `name`.
  std::vector<double> DurationsMs(const char* name) const;

 private:
  std::vector<const mrtheta::TraceEvent*> events_;
};

/// Name → (value, unit) of the printed metrics, in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// One JSON object: {"correct":..,"attempted":..,"failed":..,"metrics":..}
  std::string ToJson(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_COMMON_H_
