// In-memory property graph store (Definition 3.1), interned + deduplicated.
//
// A property graph G = (V, E, rho, lambda, pi): nodes and edges carry a
// (possibly empty) set of labels and a set of key->Value properties; each
// edge maps to an ordered (source, target) node pair.
//
// This store replaces the Neo4j + Spark substrate of the paper (see
// DESIGN.md §1): PG-HIVE's algorithms only ever consume full scans of nodes
// and edges, which the store provides as contiguous vectors, plus batch
// views for the incremental pipeline.
//
// Representation (DESIGN.md "Interned graph core"): labels and property
// keys are interned to dense uint32 ids in a GraphSymbols context shared by
// the graph and all its copies. Each element stores only
//   - its LabelSetId / KeySetId (canonical set ids; one per distinct set),
//   - its SignatureId — the distinct (label-set, key-set) pattern of
//     Definitions 3.5/3.6,
//   - a shared row of property VALUES aligned with the canonical
//     (lexicographic) key order of its key set,
// so two of the graph's hot currencies — set comparison and set hashing —
// collapse to single-integer operations, and each distinct label/key set is
// materialized exactly once. `labels` and `properties` remain public fields
// of Node/Edge but are now lightweight views (LabelSetView/PropertyMapView)
// over the pooled canonical sets: read sites keep the std::set/std::map
// idioms (iteration in the same lexicographic order as before, find/count/
// at, implicit conversion to const std::set<std::string>&). Mutation goes
// through the PropertyGraph::Set* API, which re-interns (rows are
// copy-on-write: graph copies share rows until one of them mutates).
//
// Ground truth: elements optionally carry a `truth_type` annotation set by
// the dataset generators. Discovery algorithms never read it; only the
// evaluation harness does (majority-F1*, §5 of the paper).

#ifndef PGHIVE_GRAPH_PROPERTY_GRAPH_H_
#define PGHIVE_GRAPH_PROPERTY_GRAPH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/symbols.h"
#include "graph/value.h"

namespace pghive {

using NodeId = uint64_t;
using EdgeId = uint64_t;

/// Read-only view of a pool-owned canonical label set. Converts implicitly
/// to const std::set<std::string>& (the pooled set is materialized once per
/// distinct content and outlives every element that references it).
class LabelSetView {
 public:
  LabelSetView() : set_(&EmptySet()) {}
  explicit LabelSetView(const std::set<std::string>* set) : set_(set) {}

  operator const std::set<std::string>&() const { return *set_; }
  const std::set<std::string>& get() const { return *set_; }

  auto begin() const { return set_->begin(); }
  auto end() const { return set_->end(); }
  size_t size() const { return set_->size(); }
  bool empty() const { return set_->empty(); }
  size_t count(const std::string& s) const { return set_->count(s); }

  friend bool operator==(const LabelSetView& a, const LabelSetView& b) {
    return a.set_ == b.set_ || *a.set_ == *b.set_;
  }
  friend bool operator!=(const LabelSetView& a, const LabelSetView& b) {
    return !(a == b);
  }
  // std::set's operator== is a template and cannot deduce through the view's
  // conversion, so mixed comparisons need explicit overloads (C++20
  // synthesizes the reversed and != forms).
  friend bool operator==(const LabelSetView& a, const std::set<std::string>& b) {
    return *a.set_ == b;
  }

 private:
  static const std::set<std::string>& EmptySet();
  const std::set<std::string>* set_;
};

/// Read-only map-like view over an element's properties: canonical key ids
/// from the pool + the element's value row. Iterates in the same
/// lexicographic key order as the std::map it replaces, yielding
/// pair<const std::string&, const Value&>.
class PropertyMapView {
 public:
  using value_type = std::pair<const std::string&, const Value&>;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PropertyMapView::value_type;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    iterator(const SymbolTable* table, const std::vector<SymbolId>* keys,
             const std::vector<Value>* values, size_t i)
        : table_(table), keys_(keys), values_(values), i_(i) {}

    value_type operator*() const {
      return {table_->name((*keys_)[i_]), (*values_)[i_]};
    }

    // Proxy so `it->first` / `it->second` work; the references inside point
    // at pool/row storage, not at the proxy.
    struct ArrowProxy {
      value_type ref;
      const value_type* operator->() const { return &ref; }
    };
    ArrowProxy operator->() const { return ArrowProxy{**this}; }

    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator tmp = *this;
      ++i_;
      return tmp;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_ && a.keys_ == b.keys_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return !(a == b);
    }

   private:
    const SymbolTable* table_ = nullptr;
    const std::vector<SymbolId>* keys_ = nullptr;
    const std::vector<Value>* values_ = nullptr;
    size_t i_ = 0;
  };

  PropertyMapView() = default;
  PropertyMapView(const SymbolTable* table, const std::vector<SymbolId>* keys,
                  const std::vector<Value>* values)
      : table_(table), keys_(keys), values_(values) {}

  iterator begin() const { return {table_, keys_, values_, 0}; }
  iterator end() const { return {table_, keys_, values_, size()}; }
  size_t size() const { return keys_ == nullptr ? 0 : keys_->size(); }
  bool empty() const { return size() == 0; }

  /// Binary search over the name-ordered key ids.
  iterator find(const std::string& key) const;
  size_t count(const std::string& key) const {
    return FindIndex(key) == kNotFound ? 0 : 1;
  }
  /// Throws std::out_of_range when absent (std::map::at semantics).
  const Value& at(const std::string& key) const;
  /// nullptr when absent — the cheap non-throwing lookup for hot paths.
  const Value* FindValue(const std::string& key) const {
    size_t i = FindIndex(key);
    return i == kNotFound ? nullptr : &(*values_)[i];
  }

  /// Key name at position `i` in canonical order.
  const std::string& key_at(size_t i) const { return table_->name((*keys_)[i]); }
  const Value& value_at(size_t i) const { return (*values_)[i]; }

  /// Materializes an owning copy (conversion kept implicit so call sites
  /// passing `const std::map<...>&` still compile; cold paths only).
  operator std::map<std::string, Value>() const { return ToMap(); }
  std::map<std::string, Value> ToMap() const;

  friend bool operator==(const PropertyMapView& a, const PropertyMapView& b);
  friend bool operator!=(const PropertyMapView& a, const PropertyMapView& b) {
    return !(a == b);
  }
  friend bool operator==(const PropertyMapView& a,
                         const std::map<std::string, Value>& b);

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  size_t FindIndex(const std::string& key) const;

  const SymbolTable* table_ = nullptr;
  const std::vector<SymbolId>* keys_ = nullptr;
  const std::vector<Value>* values_ = nullptr;
};

/// A node: labels (lambda), properties (pi) and an evaluation-only ground
/// truth tag. `label_set`/`key_set`/`signature` are the interned identities
/// (valid within the owning graph's symbol context); `labels`/`properties`
/// are views over the pooled canonical data.
struct Node {
  NodeId id = 0;
  LabelSetId label_set = SymbolSetPool::kEmpty;
  KeySetId key_set = SymbolSetPool::kEmpty;
  SignatureId signature = 0;
  LabelSetView labels;
  PropertyMapView properties;
  /// Ground-truth type name; empty when unknown. Not consumed by discovery.
  std::string truth_type;

  bool HasProperty(const std::string& key) const {
    return properties.count(key) > 0;
  }

 private:
  friend class PropertyGraph;
  // Keeps the value row alive; `properties` points into it. Shared between
  // graph copies (rows are immutable; mutation swaps in a fresh row).
  std::shared_ptr<const std::vector<Value>> values_;
};

/// An edge: ordered endpoints (rho), labels, properties, ground truth tag.
struct Edge {
  EdgeId id = 0;
  NodeId source = 0;
  NodeId target = 0;
  LabelSetId label_set = SymbolSetPool::kEmpty;
  KeySetId key_set = SymbolSetPool::kEmpty;
  SignatureId signature = 0;
  LabelSetView labels;
  PropertyMapView properties;
  std::string truth_type;

  bool HasProperty(const std::string& key) const {
    return properties.count(key) > 0;
  }

 private:
  friend class PropertyGraph;
  std::shared_ptr<const std::vector<Value>> values_;
};

/// Owning, symbol-free element data: the transit format for codecs, stream
/// batches and anything that builds elements before a graph exists.
struct NodeData {
  NodeId id = 0;
  std::set<std::string> labels;
  std::map<std::string, Value> properties;
  std::string truth_type;
};

struct EdgeData {
  EdgeId id = 0;
  NodeId source = 0;
  NodeId target = 0;
  std::set<std::string> labels;
  std::map<std::string, Value> properties;
  std::string truth_type;
};

NodeData ToData(const Node& n);
EdgeData ToData(const Edge& e);

/// Directed multigraph with labeled, propertied nodes and edges.
///
/// NodeIds/EdgeIds are dense indices assigned in insertion order, which makes
/// batch slicing for the incremental pipeline trivial.
///
/// Copies share the symbol context (append-only) and the immutable value
/// rows, so copying is O(elements) over small structs rather than
/// O(strings). Copies sharing a context must not be MUTATED concurrently
/// from different threads; concurrent reads are safe.
class PropertyGraph {
 public:
  PropertyGraph();

  /// Constructs an empty graph over an existing symbol context (the
  /// columnar snapshot decode path re-interns the persisted symbol tables
  /// once, and the CSV loader interns each distinct label/key set as it
  /// first appears; both then append elements by id through
  /// AddNodeInterned/AddEdgeInterned). `symbols` must be non-null.
  explicit PropertyGraph(std::shared_ptr<GraphSymbols> symbols);

  PropertyGraph(const PropertyGraph&) = default;
  PropertyGraph& operator=(const PropertyGraph&) = default;
  PropertyGraph(PropertyGraph&&) = default;
  PropertyGraph& operator=(PropertyGraph&&) = default;

  /// Adds a node; returns its id.
  NodeId AddNode(std::set<std::string> labels,
                 std::map<std::string, Value> properties,
                 std::string truth_type = "");

  /// Adds an edge between existing nodes. Fails with InvalidArgument if an
  /// endpoint does not exist.
  Result<EdgeId> AddEdge(NodeId source, NodeId target,
                         std::set<std::string> labels,
                         std::map<std::string, Value> properties,
                         std::string truth_type = "");

  // --- Interned fast path (snapshot/journal decode) ----------------------

  /// Adds a node by pre-interned set ids from THIS graph's symbol context;
  /// `values` must be aligned with the key set's canonical (lexicographic)
  /// key order. Fails with InvalidArgument on out-of-range ids or a
  /// mismatched row length.
  Result<NodeId> AddNodeInterned(LabelSetId label_set, KeySetId key_set,
                                 std::vector<Value> values,
                                 std::string truth_type = "");
  Result<EdgeId> AddEdgeInterned(NodeId source, NodeId target,
                                 LabelSetId label_set, KeySetId key_set,
                                 std::vector<Value> values,
                                 std::string truth_type = "");

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  const Node& node(NodeId id) const { return nodes_[id]; }
  const Edge& edge(EdgeId id) const { return edges_[id]; }

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  // --- Mutation (re-interns; replaces mutable_node/mutable_edge) ---------

  void SetNodeLabels(NodeId id, const std::set<std::string>& labels);
  void SetEdgeLabels(EdgeId id, const std::set<std::string>& labels);
  void SetNodeProperties(NodeId id, const std::map<std::string, Value>& props);
  void SetEdgeProperties(EdgeId id, const std::map<std::string, Value>& props);

  // --- Interning context -------------------------------------------------

  /// The shared symbol context (labels/keys tables, canonical set pools,
  /// signature pools). Read-only from outside; ids stored on elements index
  /// into it.
  const GraphSymbols& symbols() const { return *symbols_; }

  /// All distinct property keys over nodes, sorted (the global set K_n of
  /// §4.1 that defines the binary indicator dimensions).
  std::vector<std::string> NodePropertyKeys() const;

  /// All distinct property keys over edges, sorted (K_e of §4.1).
  std::vector<std::string> EdgePropertyKeys() const;

  /// All distinct node label tokens (sorted-concatenated label sets are NOT
  /// applied here; these are individual labels), sorted.
  std::vector<std::string> NodeLabels() const;
  std::vector<std::string> EdgeLabels() const;

  // --- Signature index ---------------------------------------------------

  /// One distinct (label-set, key-set) signature with its member element
  /// ids, in id order.
  struct SignatureGroup {
    SignatureId signature = 0;
    std::vector<uint64_t> members;
  };

  /// Distinct node signatures present in the graph with their members, in
  /// first-seen order. Built incrementally; rebuilt lazily after mutation
  /// (call from a single thread).
  const std::vector<SignatureGroup>& NodeSignatureGroups() const;
  const std::vector<SignatureGroup>& EdgeSignatureGroups() const;

  /// Number of distinct node patterns (Def. 3.5): distinct (label set,
  /// property key set) pairs.
  size_t CountNodePatterns() const;

  /// Number of distinct edge patterns (Def. 3.6): distinct (label set,
  /// property key set, (source labels, target labels)) triples.
  size_t CountEdgePatterns() const;

  /// Approximate heap footprint of the graph (symbol context + element
  /// spines + value rows), for the obs gauges and micro-benches.
  size_t ApproxBytes() const;

 private:
  void InternNode(Node* n, const std::set<std::string>& labels,
                  const std::map<std::string, Value>& properties);
  void InternEdge(Edge* e, const std::set<std::string>& labels,
                  const std::map<std::string, Value>& properties);
  void RebuildSignatureIndex() const;
  static void AppendToIndex(std::vector<SignatureGroup>* groups,
                            std::vector<int32_t>* pos, SignatureId sig,
                            uint64_t member);

  std::shared_ptr<GraphSymbols> symbols_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;

  // Signature index: groups in first-seen order; pos maps SignatureId ->
  // index in groups (-1 when absent). Mutations mark it dirty; the next
  // accessor call rebuilds.
  mutable std::vector<SignatureGroup> node_sig_groups_;
  mutable std::vector<SignatureGroup> edge_sig_groups_;
  mutable std::vector<int32_t> node_sig_pos_;
  mutable std::vector<int32_t> edge_sig_pos_;
  mutable bool sig_index_dirty_ = false;
};

/// A half-open slice of a graph's node/edge index space; the unit of work of
/// the incremental pipeline (one batch Gs_i of Algorithm 1).
struct GraphBatch {
  const PropertyGraph* graph = nullptr;
  size_t node_begin = 0;
  size_t node_end = 0;  // exclusive
  size_t edge_begin = 0;
  size_t edge_end = 0;  // exclusive

  size_t num_nodes() const { return node_end - node_begin; }
  size_t num_edges() const { return edge_end - edge_begin; }
};

/// Structural equality of two graphs: same node/edge sequences with equal
/// ids, labels, properties (typed values) and ground-truth tags. Used by the
/// CSV and binary-store round-trip guarantees. Graphs sharing a symbol
/// context compare by interned ids; otherwise by canonical content.
bool GraphsEqual(const PropertyGraph& a, const PropertyGraph& b);

/// A batch covering the whole graph (the static, non-incremental case).
GraphBatch FullBatch(const PropertyGraph& g);

/// Splits the graph into `num_batches` near-equal contiguous batches over
/// both nodes and edges (the paper's incremental evaluation splits each
/// graph into 10 batches). Returns fewer batches if the graph is tiny.
std::vector<GraphBatch> SplitIntoBatches(const PropertyGraph& g,
                                         size_t num_batches);

}  // namespace pghive

#endif  // PGHIVE_GRAPH_PROPERTY_GRAPH_H_
