// serve_mixed: four closed-loop clients Submit a mix of small prepared
// shapes to one admission-controlled engine (4-thread pool, 4 queries in
// flight, 2 threads per query, warm plan cache) under a session memory
// budget set above every shape's solo peak.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "oracle.h"
#include "src/api/theta_engine.h"
#include "src/mem/memory_budget.h"
#include "src/obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kClients = 4;
constexpr int kPoolThreads = 4;
constexpr int kMaxInflight = 4;
constexpr int kPerQueryThreads = 2;
// Every client can wait at once, so admission never refuses a Submit.
constexpr int kQueueDepth = 4 * kClients;
constexpr int64_t kLineitemRows = 1500;
constexpr int kNumShapes = 5;
// The budget sits this far above the largest solo peak.
constexpr double kBudgetHeadroom = 1.2;
// A budget no shape comes near: the solo peaks are measured under it, on
// the same budgeted execution path the serving engine takes.
constexpr int64_t kUnboundedBudget = int64_t{1} << 40;

class ServeMixed : public Workload {
 public:
  explicit ServeMixed(uint64_t seed) : seed_(seed) { facts_.resize(kNumShapes); }

  int num_shapes() const override { return kNumShapes; }

  // The sequential reference pass: each shape alone on an engine configured
  // like the serving one, giving the reference rows, the solo memory peaks
  // and from them the budget; then each shape alone under that budget,
  // which must not spill.
  bool BuildExpectations() override {
    std::vector<Shape> shapes = BuildShapes();
    bool ok = true;
    int64_t max_peak = 0;
    {
      mrtheta::ThetaEngine engine(Options(kUnboundedBudget));
      for (int s = 0; s < kNumShapes; ++s) {
        Shape& shape = shapes[s];
        shape.expected_rows = IndependentRowCount(shape);
        expected_rows_.push_back(shape.expected_rows);
        facts_[s].name = shape.name;
        mrtheta::MemoryBudget::Global().ResetPeak();
        auto result = engine.Execute(shape.query);
        if (!result.ok()) {
          std::fprintf(stderr, "perfbench: reference %s: %s\n",
                       shape.name.c_str(), result.status().ToString().c_str());
          std::exit(2);
        }
        max_peak = std::max(max_peak,
                            mrtheta::MemoryBudget::Global().peak_bytes());
        ok = CheckResult(shape, *result) && ok;
        reference_.push_back(FingerprintOrdered(*result));
        NoteFacts(s, *result);
      }
    }
    budget_ = static_cast<int64_t>(static_cast<double>(max_peak) *
                                   kBudgetHeadroom);
    mrtheta::ThetaEngine engine(Options(budget_));
    for (int s = 0; s < kNumShapes; ++s) {
      const mrtheta::EngineMetrics before = engine.metrics();
      auto result = engine.Execute(shapes[s].query);
      const mrtheta::EngineMetrics after = engine.metrics();
      if (!result.ok() || FingerprintOrdered(*result) != reference_[s]) {
        std::fprintf(stderr, "perfbench: %s differs under the budget\n",
                     shapes[s].name.c_str());
        ok = false;
      }
      if (after.spill_bytes != before.spill_bytes) {
        std::fprintf(stderr, "perfbench: %s spills alone under %lld bytes\n",
                     shapes[s].name.c_str(), static_cast<long long>(budget_));
        ok = false;
      }
    }
    std::printf("serve_mixed: largest solo peak %.2f MiB, budget %.2f MiB\n",
                static_cast<double>(max_peak) / (1 << 20),
                static_cast<double>(budget_) / (1 << 20));
    return ok;
  }

  double Setup(bool keep) override {
    const Clock::time_point start = Clock::now();
    std::vector<Shape> shapes = BuildShapes();
    for (int s = 0; s < kNumShapes; ++s) {
      shapes[s].expected_rows = expected_rows_[s];
    }
    auto session = PrepareSession(Options(budget_), std::move(shapes));
    const double seconds = SecondsSince(start);
    if (keep) session_ = std::move(session);
    return seconds;
  }

  // Each client submits the shapes in turn, starting at its own offset,
  // and waits for every result before its next Submit; it stops after the
  // first whole cycle that ends past the deadline.
  void RunSegment(double seconds, Tally& tally) override {
    const mrtheta::EngineMetrics before = session_->engine->metrics();
    const Clock::time_point start = Clock::now();
    std::vector<int> cycles(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([this, c, seconds, start, &cycles, &tally] {
        do {
          for (int i = 0; i < kNumShapes; ++i) RunOne((c + i) % kNumShapes, tally);
          ++cycles[c];
        } while (SecondsSince(start) < seconds);
      });
    }
    for (std::thread& t : clients) t.join();
    tally.AddPhaseSeconds(SecondsSince(start));
    int total = 0;
    for (int n : cycles) total += n;
    tally.AddRounds(static_cast<double>(total) / kClients);
    tally.AddEngineDelta(before, session_->engine->metrics());
  }

  void Teardown() override { session_.reset(); }

 private:
  mrtheta::EngineOptions Options(int64_t budget) const {
    mrtheta::EngineOptions options;
    options.executor.num_threads = kPoolThreads;
    options.max_inflight_queries = kMaxInflight;
    options.max_queue_depth = kQueueDepth;
    options.per_query_threads = kPerQueryThreads;
    options.mem_budget_bytes = budget;
    return options;
  }

  std::vector<Shape> BuildShapes() const {
    // Shapes whose plan does not change with the seed; mobile Q1 at this
    // size switches between a single job and a cascade.
    std::vector<Shape> shapes;
    shapes.push_back(MobileShape(3, 300, seed_));
    shapes.push_back(FlightsShape(3, 400, seed_));
    const mrtheta::TpchData data = GenerateTpchData(kLineitemRows, seed_);
    for (int which : {7, 17, 18}) shapes.push_back(TpchShape(which, data));
    return shapes;
  }

  // One Submit, timed from the call to the ready result, and compared with
  // the reference pass row for row.
  void RunOne(int s, Tally& tally) {
    const Clock::time_point call = Clock::now();
    mrtheta::StatusOr<mrtheta::QueryResult> result =
        mrtheta::Status::Internal("not run");
    {
      mrtheta::TraceSpan span("bench.submit", "bench");
      result = session_->prepared[s].Submit().get();
    }
    const double call_s = SecondsSince(call);
    if (!result.ok()) {
      std::fprintf(stderr, "perfbench: %s: %s\n",
                   session_->shapes[s].name.c_str(),
                   result.status().ToString().c_str());
      tally.AddOperation(s, PlanKind::kOurs, call_s, nullptr, false);
      return;
    }
    const bool same = FingerprintOrdered(*result) == reference_[s];
    if (!same) {
      std::fprintf(stderr, "perfbench: %s differs from the reference pass\n",
                   session_->shapes[s].name.c_str());
    }
    tally.AddOperation(s, PlanKind::kOurs, call_s, &*result, !same);
  }

  const uint64_t seed_;
  std::vector<int64_t> expected_rows_;
  std::vector<uint64_t> reference_;
  int64_t budget_ = 0;
  std::unique_ptr<PreparedSession> session_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(uint64_t seed) {
  return std::make_unique<ServeMixed>(seed);
}

}  // namespace perfbench
