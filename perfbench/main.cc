// perfbench: end-to-end benchmark of the theta-join engine's public API.
//
//   perfbench --workload <hilbert_chain|plan_choice|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no TraceSession open.
// --trace 1 runs half the time untraced, then opens one TraceSession,
// sets up again and runs the other half traced, and reports the per-layer
// metrics folded from the spans and the executed results. The last line of
// standard output is the result object (README.md in this directory).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Segments of a concurrent timed phase; a set-up sample is taken between
// two segments (and between two rounds of a single-caller workload).
constexpr int kSegments = 10;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<hilbert_chain|plan_choice|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      if (value == "0" || value == "1") args.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!have_seed) Usage("--seed must be a non-negative integer");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  if (args.trace < 0) Usage("--trace must be 0 or 1");
  return args;
}

std::unique_ptr<Workload> Make(const Args& args) {
  if (args.workload == "hilbert_chain") return MakeHilbertChain(args.seed);
  if (args.workload == "plan_choice") return MakePlanChoice(args.seed);
  if (args.workload == "serve_mixed") return MakeServeMixed(args.seed);
  Usage(("unknown workload " + args.workload).c_str());
}

// Runs whole segments until `seconds` have passed. With `setup_samples`,
// one further set-up is built and dropped between segments, so the set-up
// samples spread over the same stretch of time as the measurements.
void RunTimed(Workload& workload, double seconds, Tally& tally,
              std::vector<double>* setup_samples) {
  const Clock::time_point start = Clock::now();
  for (;;) {
    workload.RunSegment(seconds / kSegments, tally);
    if (SecondsSince(start) >= seconds) break;
    if (setup_samples != nullptr) {
      setup_samples->push_back(workload.Setup(false));
    }
  }
}

double SumSimMakespan(const Workload& workload) {
  double total = 0.0;
  for (const ShapeFacts& f : workload.facts()) total += f.sim_makespan_s;
  return total;
}

double SumSimShuffleGb(const Workload& workload) {
  double total = 0.0;
  for (const ShapeFacts& f : workload.facts()) {
    total += static_cast<double>(f.sim_shuffle_bytes) * 1e-9;
  }
  return total;
}

// Kendall's tau between two orders of the same items; tied pairs count 0.
double KendallTau(const std::array<double, kNumPlanKinds>& a,
                  const std::array<double, kNumPlanKinds>& b) {
  double sum = 0.0;
  int pairs = 0;
  for (int i = 0; i < kNumPlanKinds; ++i) {
    for (int j = i + 1; j < kNumPlanKinds; ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      sum += ((da > 0) - (da < 0)) * ((db > 0) - (db < 0));
      ++pairs;
    }
  }
  return sum / pairs;
}

// Plan regret and rank agreement of the workloads that run the baseline
// planners; both stay 0 elsewhere.
void AddPlanRanking(const Workload& workload, const Tally& tally,
                    MetricSet& metrics) {
  std::vector<double> regrets;
  double tau_sum = 0.0;
  const auto& sims = workload.sim_by_plan();
  for (size_t s = 0; s < sims.size(); ++s) {
    std::array<double, kNumPlanKinds> measured{};
    int fastest = 0;
    for (int k = 0; k < kNumPlanKinds; ++k) {
      measured[k] = tally.MedianMeasured(static_cast<int>(s),
                                         static_cast<PlanKind>(k));
      if (measured[k] < measured[fastest]) fastest = k;
    }
    const double regret = measured[0] / std::max(measured[fastest], 1e-9);
    const double tau = KendallTau(sims[s], measured);
    regrets.push_back(regret);
    tau_sum += tau;
    std::printf("%s: measured ours %.4fs hive %.4fs pig %.4fs ysmart %.4fs; "
                "fastest %s; regret %.3f; tau %.3f\n",
                workload.facts()[s].name.c_str(), measured[0], measured[1],
                measured[2], measured[3],
                PlanKindName(static_cast<PlanKind>(fastest)), regret, tau);
  }
  metrics.Add("planner.regret", regrets.empty() ? 0.0 : Geomean(regrets),
              "ratio");
  metrics.Add("cost.rank_tau",
              sims.empty() ? 0.0 : tau_sum / static_cast<double>(sims.size()),
              "tau");
}

void PrintSamples(const Tally& tally, int num_shapes) {
  std::printf("timed phase: %lld operations in %.2f rounds over %.2f s, "
              "about %lld calls per shape\n",
              static_cast<long long>(tally.attempted()), tally.rounds(),
              tally.phase_seconds(),
              static_cast<long long>(tally.attempted() / num_shapes));
}

int RunEndToEnd(const Args& args, Workload& workload) {
  const double ref_before = RefLoopMs();
  const bool expectations_ok = workload.BuildExpectations();
  std::vector<double> setups = {workload.Setup(true)};
  Tally tally(workload.num_shapes());
  RunTimed(workload, args.seconds, tally, &setups);
  workload.Teardown();
  const double ref_after = RefLoopMs();

  PrintSamples(tally, workload.num_shapes());
  std::printf("host.ref_loop_ms before %.3f after %.3f; %zu set-up samples\n",
              ref_before, ref_after, setups.size());
  MetricSet metrics;
  metrics.Add("setup_s", Median(setups), "s");
  metrics.Add("query_s_geomean", tally.ShapeQuantileGeomean(0.5), "s");
  metrics.Add("queries_per_s", tally.OpsPerSecond(), "1/s");
  metrics.Add("latency_p50_s", tally.OursLatencyQuantile(0.5), "s");
  metrics.Add("latency_p90_s", tally.ShapeQuantileGeomean(0.9), "s");
  metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
  metrics.Add("sim_makespan_s", SumSimMakespan(workload), "sim_s");
  metrics.Add("sim_shuffle_gb", SumSimShuffleGb(workload), "GB");
  std::printf("%s\n", metrics.ToJson(expectations_ok && !tally.mismatch(),
                                     tally.attempted(), tally.failed())
                          .c_str());
  return 0;
}

int RunTraced(const Args& args, Workload& workload) {
  const double ref_before = RefLoopMs();
  const bool expectations_ok = workload.BuildExpectations();
  workload.Setup(true);
  Tally untraced(workload.num_shapes());
  RunTimed(workload, args.seconds / 2, untraced, nullptr);

  Tally traced(workload.num_shapes());
  std::vector<mrtheta::TraceEvent> events;
  double setup_from = 0.0, setup_to = 0.0, timed_to = 0.0;
  {
    mrtheta::Tracer tracer;
    mrtheta::TraceSession session(&tracer);
    setup_from = tracer.NowMicros();
    workload.Setup(true);
    setup_to = tracer.NowMicros();
    RunTimed(workload, args.seconds / 2, traced, nullptr);
    timed_to = tracer.NowMicros();
    // Engines end inside the session: their threads record spans.
    workload.Teardown();
    events = tracer.events();
  }
  const double ref_after = RefLoopMs();
  const SpanFold setup(events, setup_from, setup_to);
  const SpanFold timed(events, setup_to, timed_to);
  const SpanFold all(events, 0.0, timed_to);
  const double rounds = std::max(traced.rounds(), 1e-9);
  auto per_round = [&](const char* span) {
    return timed.SumSeconds(span) / rounds;
  };

  PrintSamples(traced, workload.num_shapes());
  MetricSet metrics;
  metrics.Add("workload.generate_s", setup.SumSeconds("bench.generate"), "s");
  metrics.Add("cost.calibration_s", Median(all.DurationsMs("calibrate")) * 1e-3,
              "s");
  metrics.Add("stats.collect_s",
              setup.SumSeconds("collect-stats") + per_round("collect-stats"),
              "s");
  metrics.Add("planner.plan_s",
              setup.SumSeconds("plan") + per_round("plan"), "s");
  int jobs = 0;
  for (const ShapeFacts& f : workload.facts()) jobs += f.jobs;
  metrics.Add("planner.jobs", jobs, "count");
  AddPlanRanking(workload, traced, metrics);
  metrics.Add("baselines.exec_s", Geomean(traced.baseline_calls()), "s");
  metrics.Add("executor.exec_s", traced.measured_s / rounds, "s");
  const double outside_executor = per_round("collect-stats") +
                                  per_round("plan") +
                                  per_round("admission-wait");
  metrics.Add("executor.finish_s",
              traced.call_minus_measured_s / rounds - outside_executor, "s");
  const double reduce_s = per_round("reduce-phase");
  metrics.Add("runtime.map_s", per_round("map-phase"), "s");
  metrics.Add("runtime.shuffle_s", per_round("shuffle-merge"), "s");
  metrics.Add("runtime.reduce_s", reduce_s, "s");
  const std::vector<double> tasks = timed.DurationsMs("reduce-task");
  metrics.Add("runtime.reduce_task_p50_ms", Median(tasks), "ms");
  metrics.Add("runtime.reduce_task_max_ms",
              tasks.empty() ? 0.0 : *std::max_element(tasks.begin(),
                                                      tasks.end()),
              "ms");
  metrics.Add("mapreduce.map_records", traced.map_records / rounds, "count");
  metrics.Add("mapreduce.reduce_comparisons",
              traced.reduce_comparisons / rounds, "count");
  const double output_rows = traced.output_rows / rounds;
  metrics.Add("exec.output_rows", output_rows, "count");
  metrics.Add("exec.rows_per_reduce_s",
              reduce_s > 0.0 ? output_rows / reduce_s : 0.0, "1/s");
  const mrtheta::EngineMetrics& delta = traced.engine_delta;
  metrics.Add("mem.spill_bytes", static_cast<double>(delta.spill_bytes) / rounds,
              "B");
  metrics.Add("mem.spill_files", static_cast<double>(delta.spill_files) / rounds,
              "count");
  metrics.Add("mem.spill_write_s", per_round("spill-write"), "s");
  metrics.Add("mem.spill_merge_s", per_round("spill-merge"), "s");
  metrics.Add("api.plans", static_cast<double>(delta.plans) / rounds, "count");
  metrics.Add("api.plan_cache_hits",
              static_cast<double>(delta.plan_cache_hits) / rounds, "count");
  metrics.Add("api.queue_wait_p50_ms",
              Median(timed.DurationsMs("admission-wait")), "ms");
  const double untraced_geomean = untraced.ShapeQuantileGeomean(0.5);
  metrics.Add("obs.trace_overhead",
              untraced_geomean > 0.0
                  ? traced.ShapeQuantileGeomean(0.5) / untraced_geomean
                  : 0.0,
              "ratio");
  metrics.Add("host.ref_loop_ms", 0.5 * (ref_before + ref_after), "ms");
  std::printf("%s\n",
              metrics
                  .ToJson(expectations_ok && !untraced.mismatch() &&
                              !traced.mismatch(),
                          untraced.attempted() + traced.attempted(),
                          untraced.failed() + traced.failed())
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::Parse(argc, argv);
  std::unique_ptr<perfbench::Workload> workload = perfbench::Make(args);
  return args.trace == 1 ? perfbench::RunTraced(args, *workload)
                         : perfbench::RunEndToEnd(args, *workload);
}
