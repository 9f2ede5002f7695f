// The three workloads of the benchmark (README.md in this directory).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/api/theta_engine.h"
#include "src/core/query.h"
#include "src/workload/flights.h"
#include "src/workload/tpch.h"

namespace perfbench {

/// One query shape with the row count the benchmark derived for it on its
/// own (-1 where it has no independent count).
struct Shape {
  enum class Kind { kMobileQ1, kMobileQ3, kFlights, kTpch };
  std::string name;
  Kind kind = Kind::kTpch;
  mrtheta::Query query;
  int64_t expected_rows = -1;
};

/// Shape builders over the repository's generators; each generator call
/// runs under a "bench.generate" span. `seed` is the run's --seed.
Shape MobileShape(int which, int64_t rows, uint64_t seed);
Shape FlightsShape(int legs, int64_t rows, uint64_t seed);
mrtheta::TpchData GenerateTpchData(int64_t lineitem_rows, uint64_t seed);
Shape TpchShape(int which, const mrtheta::TpchData& data);

/// The row count of `shape` computed by the oracle (-1 for TPC-H shapes).
int64_t IndependentRowCount(const Shape& shape);

/// True when `result` passes the benchmark's checks for `shape`: the
/// independent row count (where there is one) and every join condition on
/// every output row. Prints the first discrepancy to stderr.
bool CheckResult(const Shape& shape, const mrtheta::QueryResult& result);

/// An engine with every shape prepared on it: the set-up of the workloads
/// that execute prepared queries. Members end in reverse order, so the
/// handles go before the engine they point into.
struct PreparedSession {
  std::unique_ptr<mrtheta::ThetaEngine> engine;
  std::vector<Shape> shapes;
  std::vector<mrtheta::PreparedQuery> prepared;
};

/// Builds the engine, runs its calibration and prepares every shape, each
/// call under a "bench.calibration" or "bench.prepare" span. Exits the
/// process when any of them fails.
std::unique_ptr<PreparedSession> PrepareSession(
    const mrtheta::EngineOptions& options, std::vector<Shape> shapes);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int num_shapes() const = 0;
  /// Oracle work, done once per process and excluded from set-up time:
  /// independent row counts and any reference pass. Returns false when a
  /// reference result failed its checks.
  virtual bool BuildExpectations() = 0;
  /// Generates the inputs and builds engines and prepared queries. With
  /// `keep`, the result replaces the state the timed phase uses; without,
  /// it is built and dropped (a further set-up sample). Returns the
  /// seconds spent building, excluding the release of any older state.
  virtual double Setup(bool keep) = 0;
  /// Runs one segment of the timed phase: one whole round of every
  /// operation, or for concurrent clients whole rounds until `seconds`
  /// have passed.
  virtual void RunSegment(double seconds, Tally& tally) = 0;
  /// Releases engines and prepared queries.
  virtual void Teardown() = 0;

  /// The engine's own plan per shape, filled by the timed phase.
  const std::vector<ShapeFacts>& facts() const { return facts_; }
  /// Simulated makespan of every plan kind per shape, for workloads that
  /// run the baseline planners (empty otherwise).
  const std::vector<std::array<double, kNumPlanKinds>>& sim_by_plan() const {
    return sim_by_plan_;
  }

 protected:
  /// Records the engine plan's simulated figures of `shape` once.
  void NoteFacts(int shape, const mrtheta::QueryResult& result);

  std::vector<ShapeFacts> facts_;
  std::vector<std::array<double, kNumPlanKinds>> sim_by_plan_;
};

std::unique_ptr<Workload> MakeHilbertChain(uint64_t seed);
std::unique_ptr<Workload> MakePlanChoice(uint64_t seed);
std::unique_ptr<Workload> MakeServeMixed(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
