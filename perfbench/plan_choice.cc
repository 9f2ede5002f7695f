// plan_choice: how a new ad-hoc query arrives. Each round runs every shape
// as a cold Execute on a fresh four-thread engine session (statistics,
// planning and execution, no cache hits), then the Hive, Pig and YSmart
// plans of the same shape through ExecutePlan on that session. The four
// results must agree as multisets. The session's calibration is set-up
// work: it runs before the timed call and counts in setup_s.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "oracle.h"
#include "src/api/theta_engine.h"
#include "src/baselines/baseline_planners.h"
#include "src/obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kThreads = 4;
constexpr int64_t kLineitemRows = 12000;
constexpr int kTpchQueries[] = {7, 17, 18, 21};
constexpr int64_t kMobileRows = 800;
constexpr int64_t kFlightRows = 600;
constexpr int kNumShapes = 6;

constexpr PlanKind kBaselines[] = {PlanKind::kHive, PlanKind::kPig,
                                   PlanKind::kYSmart};

mrtheta::StatusOr<mrtheta::QueryPlan> BaselinePlan(
    PlanKind kind, const mrtheta::Query& query,
    const mrtheta::SimCluster& cluster) {
  switch (kind) {
    case PlanKind::kHive:
      return mrtheta::PlanHiveStyle(query, cluster);
    case PlanKind::kPig:
      return mrtheta::PlanPigStyle(query, cluster);
    default:
      return mrtheta::PlanYSmartStyle(query, cluster);
  }
}

// A fresh session with its calibration done, so that the cold Execute
// times statistics, planning and execution only.
std::unique_ptr<mrtheta::ThetaEngine> CalibratedEngine() {
  mrtheta::EngineOptions options;
  options.executor.num_threads = kThreads;
  auto engine = std::make_unique<mrtheta::ThetaEngine>(options);
  mrtheta::TraceSpan span("bench.calibration", "bench");
  const mrtheta::StatusOr<mrtheta::CalibrationReport> report =
      engine->Calibration();
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: calibration: %s\n",
                 report.status().ToString().c_str());
    std::exit(2);
  }
  return engine;
}

class PlanChoice : public Workload {
 public:
  explicit PlanChoice(uint64_t seed) : seed_(seed) {
    facts_.resize(kNumShapes);
    sim_by_plan_.resize(kNumShapes);
  }

  int num_shapes() const override { return kNumShapes; }

  bool BuildExpectations() override {
    const std::vector<Shape> shapes = BuildShapes();
    for (int s = 0; s < kNumShapes; ++s) {
      expected_rows_.push_back(IndependentRowCount(shapes[s]));
      facts_[s].name = shapes[s].name;
    }
    return true;
  }

  double Setup(bool keep) override {
    const Clock::time_point start = Clock::now();
    std::vector<Shape> shapes = BuildShapes();
    for (int s = 0; s < kNumShapes; ++s) {
      shapes[s].expected_rows = expected_rows_[s];
    }
    // The session set-up every cold query of a round also pays.
    const std::unique_ptr<mrtheta::ThetaEngine> engine = CalibratedEngine();
    const double seconds = SecondsSince(start);
    if (keep) shapes_ = std::move(shapes);
    return seconds;
  }

  void RunSegment(double /*seconds*/, Tally& tally) override {
    // Session set-up and output checks stay out of the phase's wall time.
    double untimed = 0.0;
    const Clock::time_point start = Clock::now();
    for (int s = 0; s < kNumShapes; ++s) {
      const Shape& shape = shapes_[s];
      const Clock::time_point setup = Clock::now();
      const std::unique_ptr<mrtheta::ThetaEngine> session = CalibratedEngine();
      mrtheta::ThetaEngine& engine = *session;
      untimed += SecondsSince(setup);
      const mrtheta::EngineMetrics before = engine.metrics();

      std::array<mrtheta::StatusOr<mrtheta::QueryResult>, kNumPlanKinds>
          results = {mrtheta::Status::Internal("not run"),
                     mrtheta::Status::Internal("not run"),
                     mrtheta::Status::Internal("not run"),
                     mrtheta::Status::Internal("not run")};
      std::array<double, kNumPlanKinds> call_s{};
      {
        const Clock::time_point call = Clock::now();
        mrtheta::TraceSpan span("bench.execute", "bench");
        results[0] = engine.Execute(shape.query);
        span.End();
        call_s[0] = SecondsSince(call);
      }
      for (PlanKind kind : kBaselines) {
        const int k = static_cast<int>(kind);
        mrtheta::StatusOr<mrtheta::QueryPlan> plan =
            mrtheta::Status::Internal("not planned");
        {
          mrtheta::TraceSpan span("bench.baseline_plan", "bench");
          plan = BaselinePlan(kind, shape.query, engine.cluster());
        }
        if (!plan.ok()) {
          results[k] = plan.status();
          continue;
        }
        const Clock::time_point call = Clock::now();
        mrtheta::TraceSpan span("bench.execute_plan", "bench");
        results[k] = engine.ExecutePlan(shape.query, *plan);
        span.End();
        call_s[k] = SecondsSince(call);
      }

      const Clock::time_point check = Clock::now();
      Verify(s, results, call_s, tally);
      tally.AddEngineDelta(before, engine.metrics());
      untimed += SecondsSince(check);
    }
    tally.AddPhaseSeconds(SecondsSince(start) - untimed);
    tally.AddRounds(1.0);
  }

  void Teardown() override { shapes_.clear(); }

 private:
  std::vector<Shape> BuildShapes() const {
    std::vector<Shape> shapes;
    const mrtheta::TpchData data = GenerateTpchData(kLineitemRows, seed_);
    for (int which : kTpchQueries) shapes.push_back(TpchShape(which, data));
    shapes.push_back(MobileShape(1, kMobileRows, seed_));
    shapes.push_back(FlightsShape(3, kFlightRows, seed_));
    return shapes;
  }

  // Checks each result on its own, then the four against each other: the
  // multiset most results share is the reference, ties going to the
  // engine's own plan.
  void Verify(
      int s,
      const std::array<mrtheta::StatusOr<mrtheta::QueryResult>,
                       kNumPlanKinds>& results,
      const std::array<double, kNumPlanKinds>& call_s, Tally& tally) {
    const Shape& shape = shapes_[s];
    std::array<bool, kNumPlanKinds> ok{};
    std::array<MultisetFingerprint, kNumPlanKinds> fp{};
    for (int k = 0; k < kNumPlanKinds; ++k) {
      if (!results[k].ok()) {
        std::fprintf(stderr, "perfbench: %s (%s): %s\n", shape.name.c_str(),
                     PlanKindName(static_cast<PlanKind>(k)),
                     results[k].status().ToString().c_str());
        continue;
      }
      ok[k] = CheckResult(shape, *results[k]);
      fp[k] = FingerprintMultiset(*results[k]);
    }
    int reference = 0;
    int best_votes = -1;
    for (int k = 0; k < kNumPlanKinds; ++k) {
      if (!results[k].ok()) continue;
      int votes = 0;
      for (int j = 0; j < kNumPlanKinds; ++j) {
        votes += results[j].ok() && fp[j] == fp[k];
      }
      if (votes > best_votes) {
        best_votes = votes;
        reference = k;
      }
    }
    for (int k = 0; k < kNumPlanKinds; ++k) {
      const PlanKind kind = static_cast<PlanKind>(k);
      if (!results[k].ok()) {
        tally.AddOperation(s, kind, call_s[k], nullptr, false);
        continue;
      }
      if (fp[k] != fp[reference]) {
        std::fprintf(stderr,
                     "perfbench: %s: the %s plan's rows differ from the %s "
                     "plan's\n",
                     shape.name.c_str(), PlanKindName(kind),
                     PlanKindName(static_cast<PlanKind>(reference)));
        ok[k] = false;
      }
      if (ok[k]) {
        sim_by_plan_[s][k] = results[k]->simulated_seconds();
        if (kind == PlanKind::kOurs) NoteFacts(s, *results[k]);
      }
      tally.AddOperation(s, kind, call_s[k], &*results[k], !ok[k]);
    }
  }

  const uint64_t seed_;
  std::vector<int64_t> expected_rows_;
  std::vector<Shape> shapes_;
};

}  // namespace

std::unique_ptr<Workload> MakePlanChoice(uint64_t seed) {
  return std::make_unique<PlanChoice>(seed);
}

}  // namespace perfbench
