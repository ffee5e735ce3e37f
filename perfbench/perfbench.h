#pragma once

// Shared declarations of the end-to-end serving benchmark (srs_perfbench).
//
// One run = one named workload, one seed: generate the inputs, stand the
// real SrsService + SrsServer stack up on loopback TCP (timing set-up),
// drive it from closed-loop reader connections (plus an open-loop delta
// writer on `churn`) for a fixed window, then check served answers
// against in-process engines. `--trace 1` repeats the same window with
// `"trace": true` on every query and derives per-layer metrics from the
// wire traces, the layers' public stats, and direct replays of their
// public calls.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "srs/common/json.h"
#include "srs/core/options.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/graph/delta.h"
#include "srs/graph/graph.h"
#include "srs/observability/metrics.h"
#include "srs/server/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads and their seeded inputs.

struct WorkloadSpec {
  std::string name;
  int64_t num_nodes = 0;
  int degree = 0;
  int readers = 0;              // closed-loop query connections
  bool alternate_rows = false;  // every other request is a full row
  double deltas_per_second = 0.0;  // > 0: one open-loop writer connection
  bool durable = false;         // service runs with a data dir
};

// The named workloads; null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// The paper's serving configuration (gsr-star, C = 0.6, K = 5) with the
// top-k the readers ask for; `top_k` = 0 means full rows.
inline constexpr int kTopK = 10;

// Deltas the traced run replays in-process through the write path's public
// calls (and the whole schedule of a workload that serves none).
inline constexpr size_t kReplayDeltas = 12;
srs::SimilarityOptions ServingOptions(int top_k);

// One delta as the writer sends it, plus its edges for in-process replay.
struct PlannedDelta {
  std::vector<std::pair<srs::NodeId, srs::NodeId>> inserts;
  std::vector<std::pair<srs::NodeId, srs::NodeId>> removes;
  std::string line;  // the encoded apply_delta request
  srs::EdgeDelta Build(int64_t num_nodes) const;
};

struct Inputs {
  srs::Graph graph;
  // Sources never asked before, consumed in order by every reader (no
  // source repeats within a run).
  std::vector<srs::NodeId> fresh;
  // The writer's schedule: one delta per 1/deltas_per_second, each valid
  // against the graph its predecessors produce.
  std::vector<PlannedDelta> deltas;
};

// Everything derives from `seed`; `max_deltas` bounds the writer schedule.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t max_deltas);

// Request lines.
std::string QueryLine(srs::NodeId source, int top_k, bool trace);

// ---------------------------------------------------------------------------
// The served stack.

struct Stack {
  std::shared_ptr<srs::ResultCache> cache;
  std::unique_ptr<srs::SnapshotCache> snapshots;
  std::unique_ptr<srs::SrsService> service;
  std::unique_ptr<srs::SrsServer> server;
  void Stop();
};

// Service options every workload shares: 4 engine threads, one fixed
// result-cache budget, no sharding; `data_dir` empty = not durable.
srs::SrsServiceOptions ServiceOptions(const std::string& data_dir,
                                      std::shared_ptr<srs::ResultCache> cache,
                                      srs::SnapshotCache* snapshots);

// ---------------------------------------------------------------------------
// Load generation.

enum class Shape { kTopK = 0, kRow = 1, kDelta = 2 };
const char* ShapeName(Shape shape);

// Acknowledged deltas as (served version, index into Inputs::deltas),
// sorted by version.
using Acked = std::vector<std::pair<uint64_t, size_t>>;

// One successful operation started inside the window.
struct Op {
  Shape shape = Shape::kTopK;
  uint64_t version = 0;     // the graph version served or created
  Clock::time_point start;  // send (for deltas: when it was due)
  Clock::time_point end;    // response read
  double late_ms = 0.0;     // deltas: send time minus due time
};

// A served response kept for the correctness gate / trace analysis.
struct Kept {
  Shape shape = Shape::kTopK;
  srs::NodeId source = -1;
  Clock::time_point start;
  double client_ms = 0.0;
  std::string line;
};

struct WindowResult {
  double seconds = 0.0;  // measured window length
  Clock::time_point start, end;
  std::vector<Op> ops;   // every successful operation
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Kept> kept;  // sampled (or, traced, every) query responses,
                           // by start time
  Acked acked;
  size_t rss_bytes = 0;    // process resident set once the window drained
  size_t heap_bytes = 0;   // heap bytes allocated and not freed, likewise
  size_t kept_bytes = 0;   // bytes of the kept response lines
  int threads = 0;         // process threads at window end
  std::string first_error;
};

struct WindowConfig {
  double seconds = 0.0;
  bool trace = false;
  bool keep_all = false;      // keep every query response (traced run)
  size_t keep_per_shape = 0;  // otherwise a seeded uniform sample of this
                              // many per reader and request shape
  uint64_t seed = 0;
};

// How far a run has consumed its inputs: the first unused entries of
// Inputs::fresh and Inputs::deltas.
struct Cursors {
  size_t fresh = 0;
  size_t delta = 0;
};

// Successful queries answered inside the window, per second.
double QueriesPerSecond(const WindowResult& window);

// Runs readers (and the writer, when the workload has one) against
// `port` for `config.seconds`, advancing `cursors`.
WindowResult RunWindow(const WorkloadSpec& spec, const Inputs& inputs,
                       int port, const WindowConfig& config,
                       Cursors* cursors);

// One request/response on a fresh loopback connection; "" on transport
// failure.
std::string CallOnce(int port, const std::string& line);

// ---------------------------------------------------------------------------
// Statistics.

// Linear-interpolated percentile (p in [0, 100]) of `values`; sorts them.
double Percentile(std::vector<double>* values, double p);
double Median(std::vector<double> values);

// Fields pulled out of a raw response line without a full parse.
bool ResponseOk(const std::string& line);
bool ReadUintField(const std::string& line, const char* field, uint64_t* out);

size_t HeapBytes();  // malloc's bytes in use, mmapped chunks included
int ThreadCount();
double ProcessCpuSeconds();
uint64_t ProcessMinorFaults();  // page faults served without I/O

// ---------------------------------------------------------------------------
// Correctness gate (outside every timed window). Appends a description of
// each mismatch to `errors`; returns the number of answers compared.


size_t CheckAnswers(const Inputs& inputs, const Acked& acked,
                    const std::vector<Kept>& kept,
                    std::vector<std::string>* errors);

// `churn` only: restarts from the data dir with SrsService::Recover and
// checks that every acknowledged delta is present, in order, and that
// sampled answers at the recovered head match in-process engines.
size_t CheckRecovery(const Inputs& inputs, const Acked& acked,
                     const std::string& data_dir,
                     uint64_t seed, std::vector<std::string>* errors);

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
  bool report_only = false;  // not in BENCHMARK.json's per_layer list
};

// Counters snapped before and after the traced window.
struct LayerCounters {
  srs::AdmissionQueueStats queue;
  srs::ServiceStats service;
  srs::ResultCacheStats cache;
  double batch_seconds = 0.0;     // Σ srs_query_batch_seconds
  srs::HistogramSnapshot wal;     // srs_wal_append_seconds
  double checkpoint_count = 0.0;  // srs_checkpoint_seconds
  double checkpoint_sum = 0.0;
  double cpu_seconds = 0.0;
  uint64_t minor_faults = 0;
};
LayerCounters SnapLayerCounters(const Stack& stack);

// Derives every per-layer metric from the traced window and direct
// replays of the layers' public calls, and writes the window's spans to
// `spans_path`. `untraced_qps` is the untraced window's rate. Appends the
// stage reconciliation (Σ layer self time against client time, per request
// shape) to `report`, a JSON array.
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec,
                                 const Inputs& inputs, const Stack& stack,
                                 const WindowResult& traced,
                                 const LayerCounters& before,
                                 const LayerCounters& after,
                                 double untraced_qps,
                                 const std::string& scratch_dir,
                                 const std::string& spans_path,
                                 srs::JsonValue* report);

}  // namespace perfbench
