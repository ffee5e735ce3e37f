// The traced run's per-layer metrics.
//
// Three sources, each named in the metric list of BENCHMARK.json:
//  * wire traces: every traced response carries the server's stage
//    timings (admission wait, resolve, compute, total). Each request
//    becomes a span tree — the client span with one child per stage — and
//    layer self times are summed from those spans;
//  * counter deltas across the traced window from the layers' public
//    Stats() calls and MetricsRegistry::Snapshot();
//  * direct replays after the window, timing the layers' public calls on
//    this run's graph, sources and deltas: ParseRequestLine,
//    EncodeQueryResponse, TopKEngine / QueryEngine batches,
//    VersionedGraph::Apply, MakeDerivedSnapshot,
//    PropagateResultCacheAcrossDelta and DurableStore appends.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "perfbench.h"
#include "srs/common/macros.h"
#include "srs/engine/delta_invalidation.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/snapshot.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/versioned_graph.h"
#include "srs/observability/metrics.h"
#include "srs/server/protocol.h"
#include "srs/storage/data_dir.h"

namespace perfbench {

namespace {

// Repetitions of the direct replays (medians are reported).
constexpr int kEngineReps = 3;
constexpr int kBatch4Reps = 2;
constexpr int kFastReps = 11;      // batches of a microsecond-scale call
constexpr int kFastBatch = 200;    // calls per batch

const srs::MetricSnapshot* FindHistogram(const srs::MetricsSnapshot& snap,
                                         const char* name) {
  const srs::MetricSnapshot* m = snap.Find(name);
  return m != nullptr && m->type == srs::MetricType::kHistogram ? m : nullptr;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename Fn>
double TimeMs(Fn&& fn) {
  const Clock::time_point begin = Clock::now();
  fn();
  return MsBetween(begin, Clock::now());
}

// Median time of one call of `fn`, measured over batches of kFastBatch.
template <typename Fn>
double FastCallUs(Fn&& fn) {
  std::vector<double> per_call;
  for (int rep = 0; rep < kFastReps; ++rep) {
    const double ms = TimeMs([&] {
      for (int i = 0; i < kFastBatch; ++i) fn(i);
    });
    per_call.push_back(ms * 1e3 / kFastBatch);
  }
  return Median(per_call);
}

// --- wire traces and spans -----------------------------------------------------

struct Stages {
  double client = 0, admission = 0, resolve = 0, compute = 0, dispatch = 0,
         unaccounted = 0;
};

struct WireFigures {
  std::vector<double> admission, resolve, compute;
  std::map<Shape, Stages> self_ms;  // Σ self time per layer, by shape
  std::map<Shape, uint64_t> requests;
  uint64_t levels_evaluated = 0, levels_total = 0;
  uint64_t cold_topk = 0, early_stops = 0;
  uint64_t malformed = 0;
};

// One request's spans, in stage order inside the client span. The wire
// trace carries durations, not timestamps, so the stages are laid end to
// end from the client's send; the time outside every server stage
// (transport, request parse, response encode and write) closes the span
// as `unaccounted`.
void AppendSpans(size_t request, const Kept& kept, const Stages& s,
                 Clock::time_point origin, std::string* out) {
  const double begin = MsBetween(origin, kept.start);
  const std::string client = std::string("client.") + ShapeName(kept.shape);
  char line[256];
  const auto span = [&](const std::string& name, double from, double to,
                        const char* parent) {
    std::snprintf(line, sizeof(line),
                  "{\"request\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f,\"parent\":%s}\n",
                  request, name.c_str(), from, to, parent);
    out->append(line);
  };
  const std::string parent = "\"" + client + "\"";
  span(client, begin, begin + s.client, "null");
  double at = begin;
  for (const auto& [name, ms] :
       {std::pair<const char*, double>{"server.admission", s.admission},
        {"engine.resolve", s.resolve},
        {"engine.compute", s.compute},
        {"server.dispatch", s.dispatch},
        {"server.unaccounted", s.unaccounted}}) {
    span(name, at, at + ms, parent.c_str());
    at += ms;
  }
}

WireFigures ReadWireTraces(const WindowResult& traced,
                           const std::string& spans_path) {
  WireFigures f;
  std::string spans;
  for (size_t i = 0; i < traced.kept.size(); ++i) {
    const Kept& kept = traced.kept[i];
    srs::Result<srs::JsonValue> parsed = srs::ParseJson(kept.line);
    const srs::JsonValue* trace =
        parsed.ok() ? parsed.ValueOrDie().Find("trace") : nullptr;
    const srs::JsonValue* rows =
        parsed.ok() ? parsed.ValueOrDie().Find("rows") : nullptr;
    if (trace == nullptr || rows == nullptr || rows->array().empty()) {
      ++f.malformed;
      continue;
    }
    const auto field = [trace](const char* name) {
      const srs::JsonValue* v = trace->Find(name);
      return v != nullptr && v->is_number() ? v->AsNumber() : 0.0;
    };
    Stages s;
    s.client = kept.client_ms;
    s.admission = field("admission_wait_ms");
    s.resolve = field("resolve_ms");
    s.compute = field("compute_ms");
    const double total = field("total_ms");
    s.dispatch = std::max(0.0, total - s.admission - s.resolve - s.compute);
    s.unaccounted = std::max(0.0, s.client - total);
    f.admission.push_back(s.admission);
    f.resolve.push_back(s.resolve);
    f.compute.push_back(s.compute);

    Stages& sum = f.self_ms[kept.shape];
    sum.client += s.client;
    sum.admission += s.admission;
    sum.resolve += s.resolve;
    sum.compute += s.compute;
    sum.dispatch += s.dispatch;
    sum.unaccounted += s.unaccounted;
    ++f.requests[kept.shape];

    const srs::JsonValue& row = rows->array()[0];
    const srs::JsonValue* cached = row.Find("served_from_cache");
    if (kept.shape == Shape::kTopK && cached != nullptr &&
        !cached->AsBool()) {
      const auto evaluated =
          static_cast<uint64_t>(row.Find("levels_evaluated")->AsNumber());
      const auto total_levels =
          static_cast<uint64_t>(row.Find("levels_total")->AsNumber());
      f.levels_evaluated += evaluated;
      f.levels_total += total_levels;
      ++f.cold_topk;
      if (evaluated < total_levels) ++f.early_stops;
    }
    if (!spans_path.empty()) AppendSpans(i, kept, s, traced.start, &spans);
  }
  if (!spans_path.empty()) {
    std::ofstream(spans_path, std::ios::trunc) << spans;
  }
  return f;
}

// --- direct replays -----------------------------------------------------------

struct Replays {
  double parse_us = 0, encode_us_topk = 0, encode_ms_row = 0;
  double bytes_topk = 0, bytes_row = 0;
  double topk_ms = 0, row_ms = 0, batch4_ms_per_source = 0;
  double bytes_per_query = 0;
  double apply_ms = 0, derive_ms = 0, invalidate_ms = 0;
  double checkpoint_ms = 0;
  uint64_t wal_bytes = 0;
  size_t deltas = 0;
};

srs::QueryResponse RankedResponse(const srs::TopKResult& r,
                                  srs::NodeId source) {
  srs::QueryResponse response;
  response.ranked = true;
  srs::QueryRowResult row;
  row.source = source;
  row.ranking = r.ranking;
  row.levels_evaluated = r.levels_evaluated;
  row.levels_total = r.levels_total;
  row.residual_bound = r.residual_bound;
  response.rows.push_back(std::move(row));
  return response;
}

Replays RunReplays(const Inputs& inputs, const std::string& scratch) {
  Replays out;
  const auto gsr = srs::QueryMeasure::kSimRankStarGeometric;
  // Sources from the far end of the fresh list: never served this run.
  std::vector<srs::NodeId> sources(inputs.fresh.end() - kEngineReps -
                                       4 * kBatch4Reps,
                                   inputs.fresh.end());

  srs::SnapshotCache snapshots;
  srs::VersionedGraph chain(inputs.graph);
  auto cache = std::make_shared<srs::ResultCache>();

  srs::TopKEngineOptions topk_options;
  topk_options.similarity = ServingOptions(kTopK);
  topk_options.num_threads = 4;
  topk_options.snapshot_cache = &snapshots;
  srs::TopKEngine topk =
      srs::TopKEngine::Create(srs::GraphRef(chain, 0), topk_options)
          .MoveValueOrDie();
  srs::QueryEngineOptions row_options;
  row_options.similarity = ServingOptions(0);
  row_options.num_threads = 4;
  row_options.snapshot_cache = &snapshots;
  row_options.result_cache = cache;  // rows the delta replay propagates
  srs::QueryEngine rows =
      srs::QueryEngine::Create(srs::GraphRef(chain, 0), row_options)
          .MoveValueOrDie();

  // matrix: single-source and 4-source engine batches.
  std::vector<double> topk_ms, row_ms, batch4_ms;
  srs::TopKResult last_topk;
  std::vector<std::vector<double>> computed_rows(kEngineReps);
  for (int i = 0; i < kEngineReps; ++i) {
    topk_ms.push_back(TimeMs([&] {
      last_topk = topk.BatchTopK(gsr, {sources[i]}).MoveValueOrDie()[0];
    }));
    row_ms.push_back(TimeMs([&] {
      computed_rows[i] =
          rows.BatchScores(gsr, {sources[i]}).MoveValueOrDie()[0];
    }));
  }
  for (int i = 0; i < kBatch4Reps; ++i) {
    const auto first = sources.begin() + kEngineReps + 4 * i;
    const std::vector<srs::NodeId> batch(first, first + 4);
    batch4_ms.push_back(
        TimeMs([&] { topk.BatchTopK(gsr, batch).MoveValueOrDie(); }) / 4);
  }
  out.topk_ms = Median(topk_ms);
  out.row_ms = Median(row_ms);
  out.batch4_ms_per_source = Median(batch4_ms);
  // Q and Qᵀ streamed once per series level.
  const srs::GraphSnapshot& root = *topk.snapshot();
  out.bytes_per_query =
      static_cast<double>(root.q.ByteSize() + root.qt.ByteSize()) *
      last_topk.levels_total;

  // server: request parse and response encode.
  std::vector<std::string> lines;
  for (int i = 0; i < kFastBatch; ++i) {
    lines.push_back(
        QueryLine(inputs.fresh[static_cast<size_t>(i)], kTopK, false));
  }
  const srs::SimilarityOptions defaults = ServingOptions(0);
  for (const std::string& line : lines) {
    SRS_CHECK_OK(srs::ParseRequestLine(line, defaults).status());
  }
  out.parse_us = FastCallUs([&](int i) {
    srs::ParseRequestLine(lines[static_cast<size_t>(i)], defaults).ok();
  });
  const srs::QueryResponse ranked = RankedResponse(last_topk, sources[0]);
  std::string encoded;
  out.encode_us_topk = FastCallUs([&](int i) {
    encoded = srs::EncodeQueryResponse(srs::JsonValue(int64_t{i}), ranked)
                  .Encode();
  });
  out.bytes_topk = static_cast<double>(encoded.size() + 1);
  // A row's encoded size depends on how many scores are zero, so every
  // computed row is encoded and the medians reported.
  std::vector<double> encode_row_ms, row_bytes;
  for (int i = 0; i < kEngineReps; ++i) {
    srs::QueryResponse full;
    full.rows.resize(1);
    full.rows[0].source = sources[i];
    full.rows[0].scores = std::move(computed_rows[i]);
    encode_row_ms.push_back(TimeMs([&] {
      encoded =
          srs::EncodeQueryResponse(srs::JsonValue(int64_t{i}), full).Encode();
    }));
    row_bytes.push_back(static_cast<double>(encoded.size() + 1));
  }
  out.encode_ms_row = Median(encode_row_ms);
  out.bytes_row = Median(row_bytes);

  // graph / engine / storage: the run's deltas through the write path's
  // public calls, in the order SrsService::ApplyDelta makes them.
  const std::string dir = scratch + "/replay";
  std::filesystem::remove_all(dir);
  std::shared_ptr<const srs::GraphSnapshot> parent =
      snapshots.Get(chain, 0).MoveValueOrDie();
  std::unique_ptr<srs::DurableStore> store =
      srs::DurableStore::Initialize(dir, inputs.graph, *parent)
          .MoveValueOrDie();
  std::vector<double> apply_ms, derive_ms, invalidate_ms;
  const size_t replayed = std::min(inputs.deltas.size(), kReplayDeltas);
  for (size_t i = 0; i < replayed; ++i) {
    const srs::EdgeDelta delta =
        inputs.deltas[i].Build(inputs.graph.NumNodes());
    srs::Wal::Record record;
    record.version = chain.CurrentVersion() + 1;
    record.version_fingerprint = chain.NextVersionFingerprint(delta);
    record.delta = delta;
    SRS_CHECK_OK(store->LogDelta(record));
    uint64_t version = 0;
    apply_ms.push_back(
        TimeMs([&] { version = chain.Apply(delta).MoveValueOrDie(); }));
    if (chain.IsCompacted(version)) break;  // the incremental path ends
    std::shared_ptr<const srs::GraphSnapshot> child;
    derive_ms.push_back(TimeMs(
        [&] { child = srs::MakeDerivedSnapshot(parent, chain, version); }));
    srs::Status propagated;
    invalidate_ms.push_back(TimeMs([&] {
      propagated = srs::PropagateResultCacheAcrossDelta(cache.get(), *parent,
                                                        *child, defaults)
                       .status();
    }));
    SRS_CHECK_OK(propagated);
    parent = std::move(child);
  }
  out.deltas = apply_ms.size();
  out.wal_bytes = store->WalSizeBytes();
  out.apply_ms = Median(apply_ms);
  out.derive_ms = Median(derive_ms);
  out.invalidate_ms = Median(invalidate_ms);
  const srs::Graph graph =
      chain.Materialize(parent->version).MoveValueOrDie();
  srs::Status written;
  out.checkpoint_ms =
      TimeMs([&] { written = store->WriteCheckpoint(graph, *parent); });
  SRS_CHECK_OK(written);
  store.reset();
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace

LayerCounters SnapLayerCounters(const Stack& stack) {
  LayerCounters c;
  c.queue = stack.server->QueueStats();
  c.service = stack.service->Stats();
  c.cache = stack.cache->Stats();
  c.cpu_seconds = ProcessCpuSeconds();
  c.minor_faults = ProcessMinorFaults();
  const srs::MetricsSnapshot snap = srs::GlobalMetrics().Snapshot();
  for (const srs::MetricSnapshot& m : snap.metrics) {
    if (m.name == "srs_query_batch_seconds") c.batch_seconds += m.histogram.sum;
  }
  if (const srs::MetricSnapshot* wal =
          FindHistogram(snap, "srs_wal_append_seconds")) {
    c.wal = wal->histogram;
  }
  if (const srs::MetricSnapshot* cp =
          FindHistogram(snap, "srs_checkpoint_seconds")) {
    c.checkpoint_count = static_cast<double>(cp->histogram.count);
    c.checkpoint_sum = cp->histogram.sum;
  }
  return c;
}

std::vector<Metric> LayerMetrics(const WorkloadSpec& spec,
                                 const Inputs& inputs, const Stack& stack,
                                 const WindowResult& traced,
                                 const LayerCounters& before,
                                 const LayerCounters& after,
                                 double untraced_qps,
                                 const std::string& scratch_dir,
                                 const std::string& spans_path,
                                 srs::JsonValue* report) {
  WireFigures wire = ReadWireTraces(traced, spans_path);
  const Replays replay = RunReplays(inputs, scratch_dir);

  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit,
                        uint64_t samples) {
    m.push_back(Metric{name, value, unit, samples});
  };
  const auto pct = [](std::vector<double> v, double p) {
    return Percentile(&v, p);
  };

  // server
  const double admitted =
      static_cast<double>(after.queue.admitted - before.queue.admitted);
  const double batches =
      static_cast<double>(after.queue.batches - before.queue.batches);
  const uint64_t traced_n = wire.admission.size();
  add("server.admission_wait_p50_ms", pct(wire.admission, 50), "ms",
      traced_n);
  add("server.admission_wait_p99_ms", pct(wire.admission, 99), "ms",
      traced_n);
  add("server.batch_entries_mean", Ratio(admitted, batches), "count",
      static_cast<uint64_t>(batches));
  add("server.coalesced_frac",
      Ratio(static_cast<double>(after.queue.coalesced -
                                before.queue.coalesced),
            admitted),
      "ratio", static_cast<uint64_t>(admitted));
  add("server.dispatch_busy_frac",
      (after.batch_seconds - before.batch_seconds) / traced.seconds, "ratio",
      static_cast<uint64_t>(batches));
  add("server.parse_us", replay.parse_us, "us", kFastReps);
  add("server.encode_ms_row", replay.encode_ms_row, "ms", kEngineReps);
  add("server.encode_us_topk", replay.encode_us_topk, "us", kFastReps);
  add("server.response_bytes_row", replay.bytes_row, "bytes", kEngineReps);
  add("server.response_bytes_topk", replay.bytes_topk, "bytes", 1);
  Stages all;
  for (const auto& [shape, s] : wire.self_ms) {
    all.client += s.client;
    all.unaccounted += s.unaccounted;
    // The reconciliation report: Σ layer self time against client time.
    srs::JsonValue r = srs::JsonValue::MakeObject();
    r.Set("shape", ShapeName(shape));
    r.Set("requests", wire.requests[shape]);
    r.Set("client_ms", s.client);
    r.Set("server.admission_ms", s.admission);
    r.Set("engine.resolve_ms", s.resolve);
    r.Set("engine.compute_ms", s.compute);
    r.Set("server.dispatch_ms", s.dispatch);
    r.Set("server.unaccounted_ms", s.unaccounted);
    r.Set("server.unaccounted_frac", Ratio(s.unaccounted, s.client));
    report->Append(std::move(r));
  }
  add("server.unaccounted_frac", Ratio(all.unaccounted, all.client), "ratio",
      traced_n);

  // engine
  const auto created =
      after.service.engines_created - before.service.engines_created;
  const auto reused =
      after.service.engines_reused - before.service.engines_reused;
  add("engine.resolve_p50_ms", pct(wire.resolve, 50), "ms", traced_n);
  add("engine.resolve_p99_ms", pct(wire.resolve, 99), "ms", traced_n);
  add("engine.compute_p50_ms", pct(wire.compute, 50), "ms", traced_n);
  add("engine.engines_created", static_cast<double>(created), "count", 1);
  add("engine.engine_reuse_frac",
      Ratio(static_cast<double>(reused), static_cast<double>(created + reused)),
      "ratio", created + reused);
  add("engine.warm_engines",
      static_cast<double>(stack.service->WarmEngineCount()), "count", 1);
  const auto hits = after.cache.hits - before.cache.hits;
  const auto misses = after.cache.misses - before.cache.misses;
  // Sources never repeat in either workload, so the hit share reads 0:
  // the report line carries it, the result line does not.
  add("engine.cache_hit_frac",
      Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
      "ratio", hits + misses);
  m.back().report_only = true;
  add("engine.cache_evictions",
      static_cast<double>(after.cache.evictions - before.cache.evictions),
      "count", 1);
  add("engine.derive_ms", replay.derive_ms, "ms", replay.deltas);
  add("engine.invalidate_ms", replay.invalidate_ms, "ms", replay.deltas);

  // core
  add("core.topk_levels_frac",
      Ratio(static_cast<double>(wire.levels_evaluated),
            static_cast<double>(wire.levels_total)),
      "ratio", wire.cold_topk);
  add("core.topk_early_stop_frac",
      Ratio(static_cast<double>(wire.early_stops),
            static_cast<double>(wire.cold_topk)),
      "ratio", wire.cold_topk);

  // matrix
  add("matrix.topk_ms_per_source", replay.topk_ms, "ms", kEngineReps);
  add("matrix.row_ms_per_source", replay.row_ms, "ms", kEngineReps);
  add("matrix.batch4_ms_per_source", replay.batch4_ms_per_source, "ms",
      kBatch4Reps);
  add("matrix.bytes_per_query", replay.bytes_per_query, "bytes", 1);

  // graph
  add("graph.apply_ms", replay.apply_ms, "ms", replay.deltas);

  // storage: the served write path on the durable workload, the replay's
  // appends elsewhere (both record into the same registry histograms).
  srs::HistogramSnapshot wal = after.wal;
  uint64_t served_checkpoints = 0;
  double checkpoint_ms = replay.checkpoint_ms;
  double wal_bytes_per_delta =
      Ratio(static_cast<double>(replay.wal_bytes),
            static_cast<double>(replay.deltas));
  if (spec.durable) {
    for (size_t i = 0; i < wal.counts.size(); ++i) {
      wal.counts[i] -= before.wal.counts.empty() ? 0 : before.wal.counts[i];
    }
    wal.count -= before.wal.count;
    served_checkpoints =
        after.service.checkpoints - before.service.checkpoints;
    if (after.checkpoint_count > before.checkpoint_count) {
      checkpoint_ms = 1e3 * (after.checkpoint_sum - before.checkpoint_sum) /
                      (after.checkpoint_count - before.checkpoint_count);
    }
    const auto deltas =
        after.service.deltas_applied - before.service.deltas_applied;
    if (served_checkpoints == 0) {
      wal_bytes_per_delta = Ratio(
          static_cast<double>(after.service.wal_bytes -
                              before.service.wal_bytes),
          static_cast<double>(deltas));
    }
  } else {
    const srs::MetricsSnapshot snap = srs::GlobalMetrics().Snapshot();
    const srs::MetricSnapshot* replayed =
        FindHistogram(snap, "srs_wal_append_seconds");
    wal = replayed != nullptr ? replayed->histogram : srs::HistogramSnapshot{};
  }
  add("storage.wal_append_p50_ms", 1e3 * wal.Percentile(50), "ms", wal.count);
  add("storage.checkpoints", static_cast<double>(served_checkpoints),
      "count", 1);
  add("storage.checkpoint_ms", checkpoint_ms, "ms", 1);
  add("storage.wal_bytes_per_delta", wal_bytes_per_delta, "bytes",
      replay.deltas);

  // common
  add("common.cpu_util",
      (after.cpu_seconds - before.cpu_seconds) / traced.seconds, "ratio", 1);
  add("common.threads", traced.threads, "count", 1);
  // Mostly first touches of freshly mapped memory, e.g. the per-worker
  // state of each engine a new graph version gets.
  add("common.minor_faults_per_s",
      static_cast<double>(after.minor_faults - before.minor_faults) /
          traced.seconds,
      "1/s", 1);

  // observability
  add("observability.trace_overhead_frac",
      1.0 - Ratio(QueriesPerSecond(traced), untraced_qps), "ratio",
      traced.ops.size());
  if (wire.malformed > 0) {
    srs::JsonValue r = srs::JsonValue::MakeObject();
    r.Set("malformed_traces", wire.malformed);
    report->Append(std::move(r));
  }
  return m;
}

}  // namespace perfbench
