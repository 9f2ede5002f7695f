// Inputs of the workloads, built with the repository's generators, and the
// checks every executed result goes through.
#include <cstdio>
#include <cstdlib>

#include "oracle.h"
#include "src/common/units.h"
#include "src/obs/trace.h"
#include "src/workload/mobile.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Logical sizes the simulated cluster plans for: the paper's smallest
// mobile data set and a TPC-H scale between its two test beds' sizes.
constexpr int64_t kMobileLogicalBytes = 20 * mrtheta::kGiB;
constexpr double kTpchScaleFactor = 100.0;

// Generator seed streams, one per input family.
constexpr uint64_t kMobileStream = 1;
constexpr uint64_t kFlightsStream = 2;
constexpr uint64_t kTpchStream = 3;

template <typename T>
T OrDie(mrtheta::StatusOr<T> value, const std::string& what) {
  if (!value.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
                 value.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(*value);
}

std::vector<mrtheta::StayOver> DefaultStays(int legs) {
  return std::vector<mrtheta::StayOver>(legs - 1);
}

}  // namespace

Shape MobileShape(int which, int64_t rows, uint64_t seed) {
  mrtheta::TraceSpan span("bench.generate", "bench");
  mrtheta::MobileDataOptions options;
  options.physical_rows = rows;
  options.logical_bytes = kMobileLogicalBytes;
  options.seed = DeriveSeed(seed, kMobileStream * 100 + which);
  Shape shape;
  shape.name = "mobile_q" + std::to_string(which) + "_" + std::to_string(rows);
  shape.kind = which == 1 ? Shape::Kind::kMobileQ1 : Shape::Kind::kMobileQ3;
  shape.query = OrDie(mrtheta::BuildMobileQuery(which, options), shape.name);
  return shape;
}

Shape FlightsShape(int legs, int64_t rows, uint64_t seed) {
  mrtheta::TraceSpan span("bench.generate", "bench");
  mrtheta::FlightLegOptions options;
  options.physical_rows = rows;
  options.seed = DeriveSeed(seed, kFlightsStream * 100 + legs);
  std::vector<mrtheta::RelationPtr> tables;
  for (int i = 0; i < legs; ++i) {
    tables.push_back(mrtheta::GenerateFlightLeg(i, options));
  }
  Shape shape;
  shape.name =
      "flights_" + std::to_string(legs) + "leg_" + std::to_string(rows);
  shape.kind = Shape::Kind::kFlights;
  shape.query = OrDie(
      mrtheta::BuildItineraryQuery(tables, DefaultStays(legs)), shape.name);
  return shape;
}

mrtheta::TpchData GenerateTpchData(int64_t lineitem_rows, uint64_t seed) {
  mrtheta::TraceSpan span("bench.generate", "bench");
  mrtheta::TpchOptions options;
  options.scale_factor = kTpchScaleFactor;
  options.physical_lineitem_rows = lineitem_rows;
  options.seed = DeriveSeed(seed, kTpchStream);
  return mrtheta::GenerateTpch(options);
}

Shape TpchShape(int which, const mrtheta::TpchData& data) {
  Shape shape;
  shape.name = "tpch_q" + std::to_string(which) + "_" +
               std::to_string(data.lineitem->num_rows());
  shape.kind = Shape::Kind::kTpch;
  shape.query = OrDie(mrtheta::BuildTpchQuery(which, data), shape.name);
  return shape;
}

int64_t IndependentRowCount(const Shape& shape) {
  switch (shape.kind) {
    case Shape::Kind::kMobileQ1:
      return CountMobileQ1(shape.query);
    case Shape::Kind::kMobileQ3:
      return CountMobileQ3(shape.query);
    case Shape::Kind::kFlights:
      return CountItineraries(shape.query,
                              DefaultStays(shape.query.num_relations()));
    case Shape::Kind::kTpch:
      return -1;
  }
  return -1;
}

bool CheckResult(const Shape& shape, const mrtheta::QueryResult& result) {
  mrtheta::TraceSpan span("bench.verify", "bench");
  if (shape.expected_rows >= 0 && result.num_rows() != shape.expected_rows) {
    std::fprintf(stderr, "perfbench: %s returned %lld rows, expected %lld\n",
                 shape.name.c_str(), static_cast<long long>(result.num_rows()),
                 static_cast<long long>(shape.expected_rows));
    return false;
  }
  const int64_t violations = CountViolations(shape.query, result);
  if (violations != 0) {
    std::fprintf(stderr,
                 "perfbench: %s: %lld output rows violate a join condition\n",
                 shape.name.c_str(), static_cast<long long>(violations));
    return false;
  }
  return true;
}

std::unique_ptr<PreparedSession> PrepareSession(
    const mrtheta::EngineOptions& options, std::vector<Shape> shapes) {
  auto session = std::make_unique<PreparedSession>();
  session->engine = std::make_unique<mrtheta::ThetaEngine>(options);
  {
    mrtheta::TraceSpan span("bench.calibration", "bench");
    OrDie(session->engine->Calibration(), "calibration");
  }
  for (const Shape& shape : shapes) {
    mrtheta::TraceSpan span("bench.prepare", "bench");
    session->prepared.push_back(
        OrDie(session->engine->Prepare(shape.query), shape.name));
  }
  session->shapes = std::move(shapes);
  return session;
}

void Workload::NoteFacts(int shape, const mrtheta::QueryResult& result) {
  ShapeFacts& facts = facts_[shape];
  if (facts.jobs > 0) return;
  facts.sim_makespan_s = result.simulated_seconds();
  facts.sim_shuffle_bytes = result.sim_shuffle_bytes();
  facts.jobs = static_cast<int>(result.jobs().size());
}

}  // namespace perfbench
