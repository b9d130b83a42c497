#include "mutation_stream.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "common/random.h"
#include "drift/replay.h"

namespace pgbench {

using pghive::EdgeData;
using pghive::EdgeId;
using pghive::EdgeUpdate;
using pghive::NodeData;
using pghive::NodeId;
using pghive::NodeUpdate;
using pghive::Status;
using pghive::store::BatchPayload;

namespace {

constexpr NodeId kGone = std::numeric_limits<NodeId>::max();
constexpr double kDeleteFraction = 0.10;
constexpr double kUpdateFraction = 0.05;

/// The store's view of the stream so far: live elements by assigned id and
/// the edges incident to each node.
struct IdSpace {
  std::vector<NodeData> nodes;
  std::vector<char> node_alive;
  std::vector<std::vector<EdgeId>> incident;
  std::vector<EdgeData> edges;
  std::vector<char> edge_alive;

  NodeId AppendNode(NodeData data) {
    const NodeId id = nodes.size();
    data.id = id;
    nodes.push_back(std::move(data));
    node_alive.push_back(1);
    incident.emplace_back();
    return id;
  }

  EdgeId AppendEdge(EdgeData data) {
    const EdgeId id = edges.size();
    data.id = id;
    incident[data.source].push_back(id);
    if (data.target != data.source) incident[data.target].push_back(id);
    edges.push_back(std::move(data));
    edge_alive.push_back(1);
    return id;
  }

  bool NodeLive(NodeId id) const {
    return id < nodes.size() && node_alive[id];
  }
  bool EdgeLive(EdgeId id) const {
    return id < edges.size() && edge_alive[id];
  }
};

}  // namespace

std::vector<BatchPayload> AddMutations(const std::vector<BatchPayload>& inserts,
                                       uint64_t seed) {
  pghive::Rng rng(seed, /*stream=*/0x6d7574);
  IdSpace ids;
  std::vector<NodeId> current;  // input node index -> assigned id (or kGone)
  std::vector<NodeId> input_of;  // assigned id -> input node index
  std::vector<NodeId> previous;  // ids the previous batch inserted
  std::vector<BatchPayload> out(inserts.size());

  for (size_t b = 0; b < inserts.size(); ++b) {
    BatchPayload& batch = out[b];
    std::vector<NodeId> deleted, updated;
    for (NodeId id : previous) {
      if (!ids.NodeLive(id)) continue;
      const double r = rng.UniformDouble();
      if (r < kDeleteFraction) {
        deleted.push_back(id);
      } else if (r < kDeleteFraction + kUpdateFraction) {
        updated.push_back(id);
      }
    }

    // Edges that go with their endpoints, in id order.
    std::vector<EdgeId> touched;
    for (const auto* list : {&deleted, &updated}) {
      for (NodeId n : *list) {
        for (EdgeId e : ids.incident[n]) {
          if (ids.edge_alive[e]) touched.push_back(e);
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

    std::vector<char> is_deleted(ids.nodes.size(), 0);
    for (NodeId n : deleted) is_deleted[n] = 1;
    const NodeId first_new = ids.nodes.size();
    std::vector<std::pair<NodeId, NodeId>> renamed;  // old id -> new id
    for (size_t j = 0; j < updated.size(); ++j) {
      renamed.emplace_back(updated[j], first_new + j);
    }
    std::sort(renamed.begin(), renamed.end());
    auto new_id = [&](NodeId n) {
      auto it = std::lower_bound(renamed.begin(), renamed.end(),
                                 std::make_pair(n, NodeId{0}));
      return it != renamed.end() && it->first == n ? it->second : n;
    };

    for (EdgeId e : touched) {
      const EdgeData& old = ids.edges[e];
      if (is_deleted[old.source] || is_deleted[old.target]) {
        batch.mutations.delete_edges.push_back(e);
      } else {
        EdgeUpdate u;
        u.id = e;
        u.data = old;
        u.data.source = new_id(old.source);
        u.data.target = new_id(old.target);
        batch.mutations.update_edges.push_back(std::move(u));
      }
      ids.edge_alive[e] = 0;
    }
    for (NodeId n : deleted) {
      batch.mutations.delete_nodes.push_back(n);
      ids.node_alive[n] = 0;
      current[input_of[n]] = kGone;
    }
    for (NodeId n : updated) {
      NodeUpdate u;
      u.id = n;
      u.data = ids.nodes[n];
      // The replacement loses one property, so updates also move the
      // schema: keys turn optional and may vanish from a type.
      if (u.data.properties.size() >= 2) {
        auto it = u.data.properties.begin();
        std::advance(it, rng.UniformU32(
                             static_cast<uint32_t>(u.data.properties.size())));
        u.data.properties.erase(it);
      }
      ids.node_alive[n] = 0;
      batch.mutations.update_nodes.push_back(u);
    }

    // Apply order: update replacements, inserted nodes, replacement edges,
    // inserted edges.
    for (const NodeUpdate& u : batch.mutations.update_nodes) {
      const NodeId id = ids.AppendNode(u.data);
      input_of.push_back(input_of[u.id]);
      current[input_of[u.id]] = id;
    }
    previous.clear();
    for (const NodeData& n : inserts[b].nodes) {
      NodeData data = n;
      const NodeId id = ids.AppendNode(std::move(data));
      if (current.size() <= n.id) current.resize(n.id + 1, kGone);
      current[n.id] = id;
      input_of.push_back(n.id);
      batch.nodes.push_back(ids.nodes[id]);
      previous.push_back(id);
    }
    for (const EdgeUpdate& u : batch.mutations.update_edges) {
      ids.AppendEdge(u.data);
    }
    for (const EdgeData& e : inserts[b].edges) {
      const NodeId s = e.source < current.size() ? current[e.source] : kGone;
      const NodeId t = e.target < current.size() ? current[e.target] : kGone;
      if (s == kGone || t == kGone) continue;
      EdgeData data = e;
      data.source = s;
      data.target = t;
      const EdgeId id = ids.AppendEdge(std::move(data));
      batch.edges.push_back(ids.edges[id]);
    }
  }
  return out;
}

Status CheckEndpointClosure(const std::vector<BatchPayload>& stream) {
  IdSpace ids;
  for (size_t b = 0; b < stream.size(); ++b) {
    const BatchPayload& batch = stream[b];
    const std::string where = "batch " + std::to_string(b) + ": ";
    std::vector<EdgeId> edges = batch.mutations.delete_edges;
    for (const EdgeUpdate& u : batch.mutations.update_edges) {
      edges.push_back(u.id);
    }
    std::vector<NodeId> nodes = batch.mutations.delete_nodes;
    for (const NodeUpdate& u : batch.mutations.update_nodes) {
      nodes.push_back(u.id);
    }
    for (EdgeId e : edges) {
      if (!ids.EdgeLive(e)) {
        return Status::InvalidArgument(where + "edge " + std::to_string(e) +
                                       " is not live");
      }
      ids.edge_alive[e] = 0;
    }
    for (NodeId n : nodes) {
      if (!ids.NodeLive(n)) {
        return Status::InvalidArgument(where + "node " + std::to_string(n) +
                                       " is not live");
      }
      ids.node_alive[n] = 0;
    }
    for (NodeId n : nodes) {
      for (EdgeId e : ids.incident[n]) {
        if (ids.edge_alive[e]) {
          return Status::InvalidArgument(
              where + "edge " + std::to_string(e) + " outlives its endpoint " +
              std::to_string(n));
        }
      }
    }
    for (const NodeUpdate& u : batch.mutations.update_nodes) {
      ids.AppendNode(u.data);
    }
    for (const NodeData& n : batch.nodes) ids.AppendNode(n);
    auto append_edge = [&](const EdgeData& e) -> Status {
      if (!ids.NodeLive(e.source) || !ids.NodeLive(e.target)) {
        return Status::InvalidArgument(where + "inserted edge " +
                                       std::to_string(e.source) + "->" +
                                       std::to_string(e.target) +
                                       " joins a node that is not live");
      }
      ids.AppendEdge(e);
      return Status::OK();
    };
    for (const EdgeUpdate& u : batch.mutations.update_edges) {
      PGHIVE_RETURN_NOT_OK(append_edge(u.data));
    }
    for (const EdgeData& e : batch.edges) {
      PGHIVE_RETURN_NOT_OK(append_edge(e));
    }
  }
  return Status::OK();
}

Status ApplyStream(const std::vector<BatchPayload>& stream,
                   pghive::PropertyGraph* graph,
                   pghive::IncrementalDiscoverer* engine) {
  for (const BatchPayload& batch : stream) {
    PGHIVE_ASSIGN_OR_RETURN(pghive::drift::AppliedBatch applied,
                            pghive::drift::ApplyMutationBatch(graph, batch));
    if (applied.deleted_nodes.empty() && applied.deleted_edges.empty()) {
      PGHIVE_RETURN_NOT_OK(engine->Feed(applied.batch));
    } else {
      PGHIVE_RETURN_NOT_OK(engine->FeedMutations(
          applied.batch, applied.deleted_nodes, applied.deleted_edges));
    }
  }
  return Status::OK();
}

StreamCounts CountStream(const std::vector<BatchPayload>& stream) {
  StreamCounts c;
  for (const BatchPayload& b : stream) {
    c.nodes += b.nodes.size() + b.mutations.update_nodes.size();
    c.edges += b.edges.size() + b.mutations.update_edges.size();
    c.deleted_nodes += b.mutations.delete_nodes.size();
    c.deleted_edges += b.mutations.delete_edges.size();
    c.updated_nodes += b.mutations.update_nodes.size();
    c.updated_edges += b.mutations.update_edges.size();
  }
  return c;
}

double SignaturesPerElement(const std::vector<BatchPayload>& stream) {
  using Signature = std::pair<std::set<std::string>, std::vector<std::string>>;
  auto signature = [](const auto& element) {
    Signature s{element.labels, {}};
    for (const auto& [key, value] : element.properties) s.second.push_back(key);
    return s;
  };
  uint64_t signatures = 0, elements = 0;
  for (const BatchPayload& b : stream) {
    std::set<Signature> nodes, edges;
    for (const NodeData& n : b.nodes) nodes.insert(signature(n));
    for (const NodeUpdate& u : b.mutations.update_nodes) {
      nodes.insert(signature(u.data));
    }
    for (const EdgeData& e : b.edges) edges.insert(signature(e));
    for (const EdgeUpdate& u : b.mutations.update_edges) {
      edges.insert(signature(u.data));
    }
    signatures += nodes.size() + edges.size();
    elements += b.nodes.size() + b.edges.size() +
                b.mutations.update_nodes.size() +
                b.mutations.update_edges.size();
  }
  return elements == 0 ? 0.0 : static_cast<double>(signatures) / elements;
}

}  // namespace pgbench
