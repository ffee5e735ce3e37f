// Workload table and seeded input generation. Every workload plans deltas:
// `churn` serves them, the others replay them in-process in the traced run.

#include <algorithm>
#include <set>

#include "perfbench.h"
#include "srs/common/rng.h"
#include "srs/graph/generators.h"

namespace perfbench {

namespace {

// Edges per delta.
constexpr size_t kDeltaInserts = 16;
constexpr size_t kDeltaRemoves = 4;

const WorkloadSpec kWorkloads[] = {
    // One connection, cold sources, alternating top-10 / full row: the
    // kernels, top-k bounds and response encoding do the work.
    {.name = "solo_cold", .num_nodes = 200000, .degree = 8, .readers = 1,
     .alternate_rows = true},
    // Three cold readers beside an open-loop durable delta writer.
    {.name = "churn", .num_nodes = 50000, .degree = 4, .readers = 3,
     .deltas_per_second = 10.0, .durable = true},
};

uint64_t EdgeKey(srs::NodeId u, srs::NodeId v) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
         static_cast<uint32_t>(v);
}

bool BaseHasEdge(const srs::Graph& g, srs::NodeId u, srs::NodeId v) {
  const auto out = g.OutNeighbors(u);
  return std::binary_search(out.begin(), out.end(), v);
}

std::string EdgeList(
    const std::vector<std::pair<srs::NodeId, srs::NodeId>>& edges) {
  std::string out = "[";
  for (size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(edges[i].first);
    out += ',';
    out += std::to_string(edges[i].second);
    out += ']';
  }
  out += ']';
  return out;
}

// Deltas valid in sequence: inserts are edges absent from the graph the
// earlier deltas produced, removes are present edges of the base graph
// (each removed at most once, never one this schedule inserted).
std::vector<PlannedDelta> PlanDeltas(const srs::Graph& g, uint64_t seed,
                                     size_t count) {
  srs::Rng rng(srs::DeriveSeed(seed, 4));
  const auto n = static_cast<uint64_t>(g.NumNodes());
  std::set<uint64_t> inserted, removed;
  std::vector<PlannedDelta> deltas(count);
  for (PlannedDelta& d : deltas) {
    while (d.inserts.size() < kDeltaInserts) {
      const auto u = static_cast<srs::NodeId>(rng.Uniform(n));
      const auto v = static_cast<srs::NodeId>(rng.Uniform(n));
      if (u == v || BaseHasEdge(g, u, v) ||
          !inserted.insert(EdgeKey(u, v)).second) {
        continue;
      }
      d.inserts.emplace_back(u, v);
    }
    while (d.removes.size() < kDeltaRemoves) {
      const auto u = static_cast<srs::NodeId>(rng.Uniform(n));
      const auto out = g.OutNeighbors(u);
      if (out.empty()) continue;
      const srs::NodeId v = out[rng.Uniform(out.size())];
      if (!removed.insert(EdgeKey(u, v)).second) continue;
      d.removes.emplace_back(u, v);
    }
    d.line = "{\"op\":\"apply_delta\",\"insert\":" + EdgeList(d.inserts) +
             ",\"remove\":" + EdgeList(d.removes) + "}";
  }
  return deltas;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

srs::SimilarityOptions ServingOptions(int top_k) {
  srs::SimilarityOptions options;
  options.damping = 0.6;
  options.iterations = 5;
  options.top_k = top_k;
  return options;
}

srs::EdgeDelta PlannedDelta::Build(int64_t num_nodes) const {
  srs::EdgeDelta::Builder builder;
  for (const auto& [u, v] : inserts) builder.Insert(u, v);
  for (const auto& [u, v] : removes) builder.Remove(u, v);
  return builder.Build(num_nodes).MoveValueOrDie();
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                  size_t max_deltas) {
  Inputs inputs;
  inputs.graph = srs::Rmat(spec.num_nodes, spec.num_nodes * spec.degree,
                           srs::DeriveSeed(seed, 1))
                     .MoveValueOrDie();

  std::vector<srs::NodeId> order(static_cast<size_t>(spec.num_nodes));
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<srs::NodeId>(i);
  }
  srs::Rng rng(srs::DeriveSeed(seed, 2));
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  inputs.fresh = std::move(order);
  inputs.deltas = PlanDeltas(inputs.graph, seed, max_deltas);
  return inputs;
}

std::string QueryLine(srs::NodeId source, int top_k, bool trace) {
  std::string line =
      "{\"op\":\"query\",\"sources\":[" + std::to_string(source) + "]";
  if (top_k > 0) line += ",\"top_k\":" + std::to_string(top_k);
  if (trace) line += ",\"trace\":true";
  return line + "}";
}

}  // namespace perfbench
