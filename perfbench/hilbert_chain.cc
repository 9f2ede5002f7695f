// hilbert_chain: the paper's single-job chain kernel. Four chain shapes are
// prepared once and executed round-robin by one caller on a one-thread
// engine, so the multiway Hilbert reducer does almost all the work and
// planning, the plan cache, admission and spilling stay idle.
#include <cstdio>

#include "src/obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct ShapeSpec {
  enum { kMobile, kFlights } family;
  int which;  // mobile query number, or itinerary legs
  int64_t rows;
};

// Sizes put each execution at a few hundred milliseconds on one thread.
constexpr ShapeSpec kShapes[] = {
    {ShapeSpec::kMobile, 1, 1500},
    {ShapeSpec::kMobile, 3, 500},
    {ShapeSpec::kFlights, 3, 1000},
    {ShapeSpec::kFlights, 4, 400},
};
constexpr int kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

Shape Build(const ShapeSpec& spec, uint64_t seed) {
  return spec.family == ShapeSpec::kMobile
             ? MobileShape(spec.which, spec.rows, seed)
             : FlightsShape(spec.which, spec.rows, seed);
}

class HilbertChain : public Workload {
 public:
  explicit HilbertChain(uint64_t seed) : seed_(seed) {
    facts_.resize(kNumShapes);
  }

  int num_shapes() const override { return kNumShapes; }

  bool BuildExpectations() override {
    for (int s = 0; s < kNumShapes; ++s) {
      const Shape shape = Build(kShapes[s], seed_);
      expected_rows_.push_back(IndependentRowCount(shape));
      facts_[s].name = shape.name;
    }
    return true;
  }

  double Setup(bool keep) override {
    const Clock::time_point start = Clock::now();
    std::vector<Shape> shapes;
    for (int s = 0; s < kNumShapes; ++s) {
      shapes.push_back(Build(kShapes[s], seed_));
      shapes.back().expected_rows = expected_rows_[s];
    }
    mrtheta::EngineOptions options;
    options.executor.num_threads = 1;
    auto session = PrepareSession(options, std::move(shapes));
    const double seconds = SecondsSince(start);
    if (keep) session_ = std::move(session);
    return seconds;
  }

  void RunSegment(double /*seconds*/, Tally& tally) override {
    const mrtheta::EngineMetrics before = session_->engine->metrics();
    double checking = 0.0;
    const Clock::time_point start = Clock::now();
    for (int s = 0; s < kNumShapes; ++s) {
      const Clock::time_point call = Clock::now();
      mrtheta::StatusOr<mrtheta::QueryResult> result =
          mrtheta::Status::Internal("not run");
      {
        mrtheta::TraceSpan span("bench.execute", "bench");
        result = session_->prepared[s].Execute();
      }
      const double call_s = SecondsSince(call);
      const Clock::time_point check = Clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     session_->shapes[s].name.c_str(),
                     result.status().ToString().c_str());
        tally.AddOperation(s, PlanKind::kOurs, call_s, nullptr, false);
      } else {
        const bool ok = CheckResult(session_->shapes[s], *result);
        if (ok) NoteFacts(s, *result);
        tally.AddOperation(s, PlanKind::kOurs, call_s, &*result, !ok);
      }
      checking += SecondsSince(check);
    }
    tally.AddPhaseSeconds(SecondsSince(start) - checking);
    tally.AddRounds(1.0);
    tally.AddEngineDelta(before, session_->engine->metrics());
  }

  void Teardown() override { session_.reset(); }

 private:
  const uint64_t seed_;
  std::vector<int64_t> expected_rows_;
  std::unique_ptr<PreparedSession> session_;
};

}  // namespace

std::unique_ptr<Workload> MakeHilbertChain(uint64_t seed) {
  return std::make_unique<HilbertChain>(seed);
}

}  // namespace perfbench
