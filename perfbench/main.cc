// srs_perfbench — the repository's end-to-end serving benchmark.
//
//   srs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--scratch DIR] [--spans PATH] [--git-sha SHA]
//
// Prints a report line (`{"report": ...}`: every end-to-end figure of the
// workload with its sample count, plus the run stamp) and, last, the
// result line `{"correct", "attempted", "failed", "metrics"}`. With
// `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
// are the per-layer ones, and the window's spans are written to --spans.
// Exits 1 when a served answer is wrong or recovery loses a delta, 2 on
// bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>

#include "perfbench.h"
#include "srs/common/cpu_features.h"
#include "srs/common/memory_tracker.h"
#include "srs/common/parallel.h"

#ifndef SRS_PERFBENCH_BUILD_TYPE
#define SRS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 11;
// Samples a reported tail needs beyond it; fewer marks it "thin_tail".
constexpr double kTailSamples = 10;
// Sources per warm-up batch: several per engine worker.
constexpr size_t kWarmBatch = 16;
// Responses per reader and request shape the gate keeps from one window.
constexpr size_t kGateSample = 8;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string scratch = ".bench_build/perfbench-scratch";
  std::string spans;
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "srs_perfbench: %s\nusage: srs_perfbench --workload "
               "solo_cold|churn --seed N --seconds S --trace 0|1 "
               "[--scratch DIR] [--spans PATH] [--git-sha SHA]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

// Starts the served stack over a copy of `graph` and times it through the
// first answered request (the engine build is lazy, so it is included).
double StartStack(const WorkloadSpec& spec, const srs::Graph& graph,
                  const std::string& data_dir, srs::NodeId first_source,
                  Stack* stack) {
  srs::Graph copy = graph;  // graph generation and copying are not set-up
  if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
  const Clock::time_point begin = Clock::now();
  stack->cache = std::make_shared<srs::ResultCache>();
  stack->snapshots = std::make_unique<srs::SnapshotCache>();
  stack->service =
      srs::SrsService::Create(std::move(copy),
                              ServiceOptions(spec.durable ? data_dir : "",
                                             stack->cache,
                                             stack->snapshots.get()))
          .MoveValueOrDie();
  stack->server =
      srs::SrsServer::Start(stack->service.get()).MoveValueOrDie();
  const std::string response =
      CallOnce(stack->server->port(), QueryLine(first_source, kTopK, false));
  const Clock::time_point end = Clock::now();
  if (!ResponseOk(response)) {
    std::fprintf(stderr, "srs_perfbench: first request failed: %s\n",
                 response.substr(0, 200).c_str());
    std::exit(1);
  }
  return std::chrono::duration<double>(end - begin).count();
}

// One query line over several sources.
std::string BatchLine(std::span<const srs::NodeId> sources, int top_k) {
  std::string line = "{\"op\":\"query\",\"top_k\":" + std::to_string(top_k) +
                     ",\"sources\":[";
  for (size_t i = 0; i < sources.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(sources[i]);
  }
  line += "]}";
  return line;
}

// Untimed warm-up. The engines allocate per-worker state on the first
// batch each worker runs, so single-source traffic grows memory in steps
// that depend on thread scheduling; batches wider than the pool make every
// worker allocate before timing.
void WarmUp(const WorkloadSpec& spec, const Inputs& inputs, int port,
            size_t* fresh_cursor) {
  const auto call = [port](const std::string& line) {
    if (!ResponseOk(CallOnce(port, line))) {
      std::fprintf(stderr, "srs_perfbench: warm-up request failed\n");
      std::exit(1);
    }
  };
  const auto fresh = [&](size_t count) {
    const std::span<const srs::NodeId> batch(
        inputs.fresh.data() + *fresh_cursor, count);
    *fresh_cursor += count;
    return batch;
  };
  call(BatchLine(fresh(kWarmBatch), kTopK));
  if (spec.alternate_rows) {
    // Two requests: a full-row response is megabytes per source.
    call(BatchLine(fresh(kWarmBatch / 2), 0));
    call(BatchLine(fresh(kWarmBatch / 2), 0));
  }
}

srs::JsonValue MetricJson(double value, const char* unit, uint64_t samples) {
  srs::JsonValue m = srs::JsonValue::MakeObject();
  m.Set("value", value);
  m.Set("unit", unit);
  if (samples > 0) m.Set("samples", samples);
  return m;
}

// Process memory before the stack starts: the generator's graph, source
// orders and planned deltas. The memory figures leave it out.
struct Baseline {
  size_t rss_bytes = 0;
  size_t heap_bytes = 0;
};

double MegabytesAbove(size_t bytes, size_t base) {
  return (static_cast<double>(bytes) - static_cast<double>(base)) /
         (1024.0 * 1024.0);
}

// Every end-to-end figure of one untraced window, by name.
srs::JsonValue EndToEndFigures(const WorkloadSpec& spec, const WindowResult& w,
                               const Baseline& base, double setup_s,
                               size_t setups) {
  std::vector<double> topk, row, delta, late;
  uint64_t in_window = 0;
  for (const Op& op : w.ops) {
    const double ms = MsBetween(op.start, op.end);
    switch (op.shape) {
      case Shape::kTopK:
        topk.push_back(ms);
        break;
      case Shape::kRow:
        row.push_back(ms);
        break;
      case Shape::kDelta:
        delta.push_back(ms);
        late.push_back(op.late_ms);
        break;
    }
    if (op.shape != Shape::kDelta && op.end <= w.end) ++in_window;
  }
  srs::JsonValue m = srs::JsonValue::MakeObject();
  m.Set("setup_s", MetricJson(setup_s, "s", setups));
  m.Set("qps", MetricJson(QueriesPerSecond(w), "1/s", in_window));
  // A tail is trusted with at least kTailSamples samples beyond it.
  const auto pct = [&m](const char* name, std::vector<double>* ms, double p) {
    if (ms->empty()) return;
    srs::JsonValue figure = MetricJson(Percentile(ms, p), "ms", ms->size());
    const double beyond = static_cast<double>(ms->size()) * (100 - p) / 100;
    if (p > 50 && beyond < kTailSamples) figure.Set("thin_tail", true);
    m.Set(name, std::move(figure));
  };
  pct("topk_p50_ms", &topk, 50);
  pct("topk_p90_ms", &topk, 90);
  if (!spec.alternate_rows) pct("topk_p99_ms", &topk, 99);
  pct("row_p50_ms", &row, 50);
  pct("row_p90_ms", &row, 90);
  pct("delta_p50_ms", &delta, 50);
  pct("delta_p90_ms", &delta, 90);
  pct("loadgen.writer_late_p90_ms", &late, 90);
  m.Set("failed_frac",
        MetricJson(w.attempted == 0 ? 0.0
                                    : static_cast<double>(w.failed) /
                                          static_cast<double>(w.attempted),
                   "ratio", w.attempted));
  // The kept response lines belong to the generator, too.
  m.Set("rss_mb",
        MetricJson(MegabytesAbove(w.rss_bytes, base.rss_bytes + w.kept_bytes),
                   "MB", 1));
  m.Set("heap_mb", MetricJson(MegabytesAbove(w.heap_bytes,
                                             base.heap_bytes + w.kept_bytes),
                              "MB", 1));
  return m;
}

// The figures the result line carries with --trace 0 (BENCHMARK.json's
// end_to_end list): the ones every workload has and that are steady from
// run to run. No top-k tail qualifies: solo_cold has too few samples for
// a p99. The tails stay in the report line.
constexpr const char* kEndToEndMetrics[] = {"setup_s", "qps", "topk_p50_ms",
                                            "rss_mb"};

srs::JsonValue Stamp(const Args& args, const Inputs& inputs) {
  srs::JsonValue s = srs::JsonValue::MakeObject();
  s.Set("workload", args.workload);
  s.Set("seed", args.seed);
  s.Set("seconds", args.seconds);
  s.Set("trace", args.trace);
  s.Set("hardware_threads", srs::HardwareThreads());
  s.Set("simd", srs::SimdLevelName(srs::ActiveSimdLevel()));
  s.Set("git_sha", args.git_sha);
  s.Set("build_type", SRS_PERFBENCH_BUILD_TYPE);
  s.Set("graph_n", inputs.graph.NumNodes());
  s.Set("graph_m", inputs.graph.NumEdges());
  return s;
}

void PrintLine(const srs::JsonValue& v) {
  std::printf("%s\n", v.Encode().c_str());
  std::fflush(stdout);
}

// Logs each phase's wall time to stderr.
class PhaseLog {
 public:
  void Done(const char* phase) {
    const Clock::time_point now = Clock::now();
    std::fprintf(stderr, "srs_perfbench: %-8s %7.2f s\n", phase,
                 MsBetween(last_, now) / 1e3);
    last_ = now;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

int Run(const Args& args) {
  PhaseLog phases;
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Usage(("unknown workload " + args.workload).c_str());
  std::filesystem::create_directories(args.scratch);
  const std::string data_dir = args.scratch + "/data";

  const size_t max_deltas =
      spec->deltas_per_second > 0
          ? static_cast<size_t>(std::ceil(args.seconds *
                                          spec->deltas_per_second)) + 8
          : kReplayDeltas;
  const Inputs inputs = MakeInputs(*spec, args.seed, max_deltas);
  phases.Done("inputs");
  Cursors cursors;

  // The first set-up serves the windows; the other kSetups - 1 run after
  // them, so the memory they free never fragments the measured heap.
  const srs::NodeId setup_source = inputs.fresh[cursors.fresh++];
  std::vector<double> setups;
  const Baseline base{srs::ProcessCurrentRssBytes(), HeapBytes()};
  Stack stack;
  setups.push_back(
      StartStack(*spec, inputs.graph, data_dir, setup_source, &stack));
  const int port = stack.server->port();
  phases.Done("setup");
  WarmUp(*spec, inputs, port, &cursors.fresh);
  phases.Done("warm-up");

  WindowConfig config;
  config.seed = args.seed;
  config.keep_per_shape = kGateSample;
  // The traced run measures an untraced half-window first, for the trace
  // overhead, then the traced half-window the layers are derived from.
  config.seconds = args.trace ? args.seconds / 2 : args.seconds;
  WindowResult plain = RunWindow(*spec, inputs, port, config, &cursors);
  phases.Done("window");

  WindowResult traced;
  std::vector<Metric> layers;
  srs::JsonValue layer_report = srs::JsonValue::MakeArray();
  if (args.trace) {
    config.trace = true;
    config.keep_all = true;
    const LayerCounters before = SnapLayerCounters(stack);
    traced = RunWindow(*spec, inputs, port, config, &cursors);
    const LayerCounters after = SnapLayerCounters(stack);
    layers = LayerMetrics(*spec, inputs, stack, traced, before, after,
                          QueriesPerSecond(plain), args.scratch, args.spans,
                          &layer_report);
    phases.Done("traced");
  }
  stack.Stop();
  phases.Done("stop");

  // The gate.
  std::vector<std::string> errors;
  Acked acked = plain.acked;
  acked.insert(acked.end(), traced.acked.begin(), traced.acked.end());
  size_t compared = CheckAnswers(inputs, acked, plain.kept, &errors);
  compared += CheckAnswers(inputs, acked, traced.kept, &errors);
  if (spec->durable) {
    compared += CheckRecovery(inputs, acked, data_dir, args.seed, &errors);
  }
  phases.Done("gate");

  for (int i = 1; i < kSetups; ++i) {
    Stack extra;
    setups.push_back(StartStack(*spec, inputs.graph, data_dir + "-setup",
                                setup_source, &extra));
    extra.Stop();
  }
  std::filesystem::remove_all(args.scratch);
  const srs::JsonValue e2e =
      EndToEndFigures(*spec, plain, base, Median(setups), setups.size());
  phases.Done("setups");
  for (const std::string& e : errors) {
    std::fprintf(stderr, "srs_perfbench: WRONG: %s\n", e.c_str());
  }
  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed = plain.failed + traced.failed;
  if (failed > 0) {
    std::fprintf(stderr, "srs_perfbench: %llu failed operations, first: %s\n",
                 static_cast<unsigned long long>(failed),
                 (plain.first_error.empty() ? traced.first_error
                                            : plain.first_error)
                     .c_str());
  }

  srs::JsonValue report = srs::JsonValue::MakeObject();
  report.Set("stamp", Stamp(args, inputs));
  report.Set("end_to_end", e2e);
  srs::JsonValue setup_runs = srs::JsonValue::MakeArray();
  for (const double s : setups) setup_runs.Append(s);
  report.Set("setup_runs_s", std::move(setup_runs));
  report.Set("gate_answers_compared", static_cast<uint64_t>(compared));
  srs::JsonValue metrics = srs::JsonValue::MakeObject();
  if (args.trace) {
    srs::JsonValue per_layer = srs::JsonValue::MakeObject();
    for (const Metric& m : layers) {
      per_layer.Set(m.name, MetricJson(m.value, m.unit.c_str(), m.samples));
      if (!m.report_only) {
        metrics.Set(m.name, MetricJson(m.value, m.unit.c_str(), 0));
      }
    }
    report.Set("per_layer", std::move(per_layer));
    report.Set("stage_reconciliation", std::move(layer_report));
  } else {
    for (const char* name : kEndToEndMetrics) {
      const srs::JsonValue& figure = *e2e.Find(name);
      metrics.Set(name, MetricJson(figure.Find("value")->AsNumber(),
                                   figure.Find("unit")->AsString().c_str(),
                                   0));
    }
  }
  srs::JsonValue report_line = srs::JsonValue::MakeObject();
  report_line.Set("report", std::move(report));
  PrintLine(report_line);

  srs::JsonValue result = srs::JsonValue::MakeObject();
  result.Set("correct", errors.empty());
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", std::move(metrics));
  PrintLine(result);
  return errors.empty() ? 0 : 1;
}

}  // namespace

srs::SrsServiceOptions ServiceOptions(const std::string& data_dir,
                                      std::shared_ptr<srs::ResultCache> cache,
                                      srs::SnapshotCache* snapshots) {
  srs::SrsServiceOptions options;
  options.similarity = ServingOptions(0);
  options.num_threads = 4;
  options.result_cache = std::move(cache);  // default 64 MiB budget
  options.snapshot_cache = snapshots;
  options.data_dir = data_dir;
  return options;
}

void Stack::Stop() {
  if (server != nullptr) {
    server->RequestShutdown();
    server->Wait();
  }
  server.reset();
  service.reset();
  snapshots.reset();
  cache.reset();
}

}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
