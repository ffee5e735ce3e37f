// The correctness gate: served answers against in-process engines, and
// (for the durable workload) recovery against the acknowledged deltas.
// Runs after the timed windows; nothing here is measured.

#include <algorithm>
#include <cstring>
#include <map>

#include "perfbench.h"
#include "srs/common/rng.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/snapshot.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/versioned_graph.h"

namespace perfbench {

namespace {

// Distinct versions the gate rebuilds reference engines for.
constexpr size_t kMaxGateVersions = 4;
// Served responses of one request shape the gate compares per window.
constexpr size_t kMaxGateAnswers = 16;
// Sources the recovery check asks the recovered service.
constexpr int kRecoverySources = 4;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Reference engines over one graph version (no result cache: every answer
// is computed from scratch).
class Reference {
 public:
  Reference(const srs::GraphRef& graph, srs::SnapshotCache* snapshots)
      : graph_(graph), snapshots_(snapshots) {}

  std::vector<srs::RankedNode> TopK(srs::NodeId source) {
    if (!topk_) {
      srs::TopKEngineOptions options;
      options.similarity = ServingOptions(kTopK);
      options.num_threads = 4;
      options.snapshot_cache = snapshots_;
      topk_ = std::make_unique<srs::TopKEngine>(
          srs::TopKEngine::Create(graph_, options).MoveValueOrDie());
    }
    return topk_
        ->BatchTopK(srs::QueryMeasure::kSimRankStarGeometric, {source})
        .MoveValueOrDie()[0]
        .ranking;
  }

  std::vector<double> Row(srs::NodeId source) {
    if (!row_) {
      srs::QueryEngineOptions options;
      options.similarity = ServingOptions(0);
      options.num_threads = 4;
      options.snapshot_cache = snapshots_;
      row_ = std::make_unique<srs::QueryEngine>(
          srs::QueryEngine::Create(graph_, options).MoveValueOrDie());
    }
    return std::move(
        row_->BatchScores(srs::QueryMeasure::kSimRankStarGeometric, {source})
            .MoveValueOrDie()[0]);
  }

 private:
  srs::GraphRef graph_;
  srs::SnapshotCache* snapshots_;
  std::unique_ptr<srs::TopKEngine> topk_;
  std::unique_ptr<srs::QueryEngine> row_;
};

std::string Describe(const Kept& kept, uint64_t version,
                     const std::string& what) {
  return std::string(ShapeName(kept.shape)) + " source " +
         std::to_string(kept.source) + " at version " +
         std::to_string(version) + ": " + what;
}

// Compares one served response's row against the reference, bit for bit.
void CompareServed(const Kept& kept, Reference* reference,
                   std::vector<std::string>* errors) {
  srs::Result<srs::JsonValue> parsed = srs::ParseJson(kept.line);
  const srs::JsonValue* rows =
      parsed.ok() ? parsed.ValueOrDie().Find("rows") : nullptr;
  const srs::JsonValue* version =
      parsed.ok() ? parsed.ValueOrDie().Find("version") : nullptr;
  if (rows == nullptr || version == nullptr || rows->array().size() != 1) {
    errors->push_back(Describe(kept, 0, "malformed response"));
    return;
  }
  const auto v = static_cast<uint64_t>(version->AsNumber());
  const srs::JsonValue& row = rows->array()[0];
  if (kept.shape == Shape::kTopK) {
    const srs::JsonValue* ranking = row.Find("ranking");
    const std::vector<srs::RankedNode> want = reference->TopK(kept.source);
    if (ranking == nullptr || ranking->array().size() != want.size()) {
      errors->push_back(Describe(kept, v, "ranking length differs"));
      return;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      const srs::JsonValue& entry = ranking->array()[i];
      if (entry.Find("node")->AsNumber() != want[i].node ||
          !SameBits(entry.Find("score")->AsNumber(), want[i].score)) {
        errors->push_back(Describe(kept, v, "rank " + std::to_string(i) +
                                                " differs"));
        return;
      }
    }
    return;
  }
  const srs::JsonValue* scores = row.Find("scores");
  const std::vector<double> want = reference->Row(kept.source);
  if (scores == nullptr || scores->array().size() != want.size()) {
    errors->push_back(Describe(kept, v, "row length differs"));
    return;
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (!SameBits(scores->array()[i].AsNumber(), want[i])) {
      errors->push_back(Describe(kept, v, "score of node " +
                                              std::to_string(i) +
                                              " differs"));
      return;
    }
  }
}

// The version chain the acknowledged deltas define, replayed in-process.
// Returns false (with an error) when the acknowledgements are not the
// consecutive versions 1..A of deltas 0..A-1.
bool ReplayAcked(const Inputs& inputs, const Acked& acked,
                 srs::VersionedGraph* chain,
                 std::vector<std::string>* errors) {
  for (size_t i = 0; i < acked.size(); ++i) {
    const auto [version, index] = acked[i];
    if (version != i + 1 || index != i) {
      errors->push_back("delta " + std::to_string(index) +
                        " acknowledged as version " +
                        std::to_string(version) + ", expected " +
                        std::to_string(i + 1));
      return false;
    }
    chain->Apply(inputs.deltas[index].Build(inputs.graph.NumNodes()))
        .ValueOrDie();
  }
  return true;
}

}  // namespace

size_t CheckAnswers(const Inputs& inputs, const Acked& acked,
                    const std::vector<Kept>& kept_all,
                    std::vector<std::string>* errors) {
  srs::VersionedGraph chain(inputs.graph);
  if (!ReplayAcked(inputs, acked, &chain, errors)) return 0;

  // Bound the reference work: per request shape, at most kMaxGateAnswers
  // responses evenly spaced over the kept ones (which are in start
  // order), at most kMaxGateVersions distinct versions (the oldest, the
  // newest and evenly spaced ones in between).
  std::map<uint64_t, std::vector<const Kept*>> by_version;
  for (const Shape shape : {Shape::kTopK, Shape::kRow}) {
    std::vector<const Kept*> of_shape;
    for (const Kept& kept : kept_all) {
      if (kept.shape == shape) of_shape.push_back(&kept);
    }
    const size_t stride =
        std::max<size_t>(1, (of_shape.size() + kMaxGateAnswers - 1) /
                                kMaxGateAnswers);
    for (size_t i = 0; i < of_shape.size(); i += stride) {
      const Kept& kept = *of_shape[i];
      uint64_t version = 0;
      if (!ReadUintField(kept.line, "version", &version) ||
          version > chain.CurrentVersion()) {
        errors->push_back(Describe(kept, version, "unknown version"));
        continue;
      }
      by_version[version].push_back(&kept);
    }
  }
  std::vector<uint64_t> versions;
  for (const auto& entry : by_version) versions.push_back(entry.first);
  std::vector<uint64_t> chosen;
  for (size_t i = 0; i < std::min(versions.size(), kMaxGateVersions); ++i) {
    const size_t at = versions.size() <= kMaxGateVersions
                          ? i
                          : i * (versions.size() - 1) / (kMaxGateVersions - 1);
    chosen.push_back(versions[at]);
  }

  srs::SnapshotCache snapshots;
  size_t compared = 0;
  for (const uint64_t version : chosen) {
    Reference reference(srs::GraphRef(chain, version), &snapshots);
    for (const Kept* kept : by_version[version]) {
      CompareServed(*kept, &reference, errors);
      ++compared;
    }
  }
  return compared;
}

size_t CheckRecovery(const Inputs& inputs, const Acked& acked,
                     const std::string& data_dir, uint64_t seed,
                     std::vector<std::string>* errors) {
  srs::VersionedGraph chain(inputs.graph);
  if (!ReplayAcked(inputs, acked, &chain, errors)) return 0;
  const uint64_t head = chain.CurrentVersion();

  srs::SnapshotCache snapshots;
  srs::Result<std::unique_ptr<srs::SrsService>> recovered =
      srs::SrsService::Recover(ServiceOptions(
          data_dir, std::make_shared<srs::ResultCache>(), &snapshots));
  if (!recovered.ok()) {
    errors->push_back("recovery failed: " + recovered.status().ToString());
    return 0;
  }
  srs::SrsService& service = *recovered.ValueOrDie();
  // Every acknowledged delta is present, and nothing after the last one.
  if (service.ServedVersion() != head) {
    errors->push_back("recovered head is version " +
                      std::to_string(service.ServedVersion()) + ", " +
                      std::to_string(head) + " deltas were acknowledged");
    return 0;
  }
  // ... in acknowledgement order: the version fingerprint chains every
  // delta's content in sequence.
  if (service.graph().VersionFingerprint(head) !=
      chain.VersionFingerprint(head)) {
    errors->push_back("recovered head fingerprint differs from the "
                      "acknowledged delta sequence");
    return 0;
  }

  Reference reference(srs::GraphRef(chain, head), &snapshots);
  srs::Rng rng(srs::DeriveSeed(seed, 9));
  size_t compared = 0;
  for (int i = 0; i < kRecoverySources; ++i) {
    const srs::NodeId source = inputs.fresh[rng.Uniform(inputs.fresh.size())];
    srs::QueryRequest request;
    request.sources = {source};
    request.options = ServingOptions(kTopK);
    srs::Result<srs::QueryResponse> response = service.Query(request);
    if (!response.ok() || response.ValueOrDie().version != head) {
      errors->push_back("recovered service failed source " +
                        std::to_string(source));
      continue;
    }
    const std::vector<srs::RankedNode>& got =
        response.ValueOrDie().rows[0].ranking;
    const std::vector<srs::RankedNode> want = reference.TopK(source);
    bool same = got.size() == want.size();
    for (size_t r = 0; same && r < want.size(); ++r) {
      same = got[r].node == want[r].node &&
             SameBits(got[r].score, want[r].score);
    }
    if (!same) {
      errors->push_back("recovered answer for source " +
                        std::to_string(source) + " differs");
    }
    ++compared;
  }
  return compared;
}

}  // namespace perfbench
