#include "store/codec.h"

#include <algorithm>
#include <map>
#include <unordered_map>

namespace pghive {
namespace store {

namespace {

// Value wire tags. Stable on-disk numbers — append, never renumber.
enum ValueTag : uint8_t {
  kValNull = 0,
  kValInt = 1,
  kValDouble = 2,
  kValBool = 3,
  kValString = 4,
  kValDate = 5,
  kValTimestamp = 6,
};

Status BadTag(const char* what, unsigned tag) {
  return Status::ParseError(std::string("unknown ") + what + " tag " +
                            std::to_string(tag));
}

template <typename Elem>
void EncodeElementCommon(const Elem& e, BinaryWriter* w) {
  EncodeStringSet(e.labels, w);
  w->WriteU32(static_cast<uint32_t>(e.properties.size()));
  for (const auto& [key, value] : e.properties) {
    w->WriteString(key);
    EncodeValue(value, w);
  }
  w->WriteString(e.truth_type);
}

template <typename Elem>
Status DecodeElementCommon(BinaryReader* r, Elem* e) {
  PGHIVE_ASSIGN_OR_RETURN(e->labels, DecodeStringSet(r));
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_props, r->ReadU32());
  for (uint32_t i = 0; i < num_props; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(std::string key, r->ReadString());
    PGHIVE_ASSIGN_OR_RETURN(Value value, DecodeValue(r));
    e->properties.emplace(std::move(key), std::move(value));
  }
  PGHIVE_ASSIGN_OR_RETURN(e->truth_type, r->ReadString());
  return Status::OK();
}

void EncodeIdVector(const std::vector<uint64_t>& ids, BinaryWriter* w) {
  w->WriteU64(ids.size());
  for (uint64_t id : ids) w->WriteU64(id);
}

Result<std::vector<uint64_t>> DecodeIdVector(BinaryReader* r) {
  PGHIVE_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  if (n > r->remaining() / sizeof(uint64_t)) {
    return Status::ParseError("id vector length exceeds input size");
  }
  std::vector<uint64_t> ids;
  ids.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(uint64_t id, r->ReadU64());
    ids.push_back(id);
  }
  return ids;
}

void EncodeConstraints(const std::map<std::string, PropertyConstraint>& cs,
                       BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(cs.size()));
  for (const auto& [key, c] : cs) {
    w->WriteString(key);
    w->WriteU8(static_cast<uint8_t>(c.type));
    w->WriteU8(c.mandatory ? 1 : 0);
  }
}

Result<std::map<std::string, PropertyConstraint>> DecodeConstraints(
    BinaryReader* r) {
  PGHIVE_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  std::map<std::string, PropertyConstraint> cs;
  for (uint32_t i = 0; i < n; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(std::string key, r->ReadString());
    PGHIVE_ASSIGN_OR_RETURN(uint8_t type, r->ReadU8());
    PGHIVE_ASSIGN_OR_RETURN(uint8_t mandatory, r->ReadU8());
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return BadTag("datatype", type);
    }
    PropertyConstraint c;
    c.type = static_cast<DataType>(type);
    c.mandatory = mandatory != 0;
    cs.emplace(std::move(key), c);
  }
  return cs;
}

}  // namespace

void EncodeStringSet(const std::set<std::string>& s, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(s.size()));
  for (const auto& item : s) w->WriteString(item);
}

Result<std::set<std::string>> DecodeStringSet(BinaryReader* r) {
  PGHIVE_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  std::set<std::string> s;
  for (uint32_t i = 0; i < n; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(std::string item, r->ReadString());
    s.insert(std::move(item));
  }
  return s;
}

void EncodeDoubleVector(const std::vector<double>& v, BinaryWriter* w) {
  w->WriteU64(v.size());
  for (double d : v) w->WriteDouble(d);
}

Result<std::vector<double>> DecodeDoubleVector(BinaryReader* r) {
  PGHIVE_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  if (n > r->remaining() / sizeof(double)) {
    return Status::ParseError("double vector length exceeds input size");
  }
  std::vector<double> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(double d, r->ReadDouble());
    v.push_back(d);
  }
  return v;
}

void EncodeValue(const Value& v, BinaryWriter* w) {
  if (v.is_null()) {
    w->WriteU8(kValNull);
    return;
  }
  switch (v.type()) {
    case DataType::kInt:
      w->WriteU8(kValInt);
      w->WriteU64(static_cast<uint64_t>(v.AsInt()));
      return;
    case DataType::kDouble:
      w->WriteU8(kValDouble);
      w->WriteDouble(v.AsDouble());
      return;
    case DataType::kBool:
      w->WriteU8(kValBool);
      w->WriteU8(v.AsBool() ? 1 : 0);
      return;
    case DataType::kDate:
      w->WriteU8(kValDate);
      w->WriteString(v.AsString());
      return;
    case DataType::kTimestamp:
      w->WriteU8(kValTimestamp);
      w->WriteString(v.AsString());
      return;
    case DataType::kString:
      w->WriteU8(kValString);
      w->WriteString(v.AsString());
      return;
  }
}

Result<Value> DecodeValue(BinaryReader* r) {
  PGHIVE_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
  switch (tag) {
    case kValNull:
      return Value();
    case kValInt: {
      PGHIVE_ASSIGN_OR_RETURN(uint64_t bits, r->ReadU64());
      return Value::Int(static_cast<int64_t>(bits));
    }
    case kValDouble: {
      PGHIVE_ASSIGN_OR_RETURN(double d, r->ReadDouble());
      return Value::Double(d);
    }
    case kValBool: {
      PGHIVE_ASSIGN_OR_RETURN(uint8_t b, r->ReadU8());
      return Value::Bool(b != 0);
    }
    case kValString: {
      PGHIVE_ASSIGN_OR_RETURN(std::string s, r->ReadString());
      return Value::String(std::move(s));
    }
    case kValDate: {
      PGHIVE_ASSIGN_OR_RETURN(std::string s, r->ReadString());
      return Value::Date(std::move(s));
    }
    case kValTimestamp: {
      PGHIVE_ASSIGN_OR_RETURN(std::string s, r->ReadString());
      return Value::Timestamp(std::move(s));
    }
    default:
      return BadTag("value", tag);
  }
}

void EncodeNode(const Node& n, BinaryWriter* w) {
  w->WriteU64(n.id);
  EncodeElementCommon(n, w);
}

void EncodeNode(const NodeData& n, BinaryWriter* w) {
  w->WriteU64(n.id);
  EncodeElementCommon(n, w);
}

Result<NodeData> DecodeNode(BinaryReader* r) {
  NodeData n;
  PGHIVE_ASSIGN_OR_RETURN(n.id, r->ReadU64());
  PGHIVE_RETURN_NOT_OK(DecodeElementCommon(r, &n));
  return n;
}

void EncodeEdge(const Edge& e, BinaryWriter* w) {
  w->WriteU64(e.id);
  w->WriteU64(e.source);
  w->WriteU64(e.target);
  EncodeElementCommon(e, w);
}

void EncodeEdge(const EdgeData& e, BinaryWriter* w) {
  w->WriteU64(e.id);
  w->WriteU64(e.source);
  w->WriteU64(e.target);
  EncodeElementCommon(e, w);
}

Result<EdgeData> DecodeEdge(BinaryReader* r) {
  EdgeData e;
  PGHIVE_ASSIGN_OR_RETURN(e.id, r->ReadU64());
  PGHIVE_ASSIGN_OR_RETURN(e.source, r->ReadU64());
  PGHIVE_ASSIGN_OR_RETURN(e.target, r->ReadU64());
  PGHIVE_RETURN_NOT_OK(DecodeElementCommon(r, &e));
  return e;
}

void EncodeGraph(const PropertyGraph& g, BinaryWriter* w) {
  w->WriteU64(g.num_nodes());
  for (const auto& n : g.nodes()) EncodeNode(n, w);
  w->WriteU64(g.num_edges());
  for (const auto& e : g.edges()) EncodeEdge(e, w);
}

Result<PropertyGraph> DecodeGraph(BinaryReader* r) {
  PropertyGraph g;
  PGHIVE_ASSIGN_OR_RETURN(uint64_t num_nodes, r->ReadU64());
  for (uint64_t i = 0; i < num_nodes; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(NodeData n, DecodeNode(r));
    if (n.id != i) {
      return Status::ParseError("graph node ids must be dense 0..n-1");
    }
    g.AddNode(std::move(n.labels), std::move(n.properties),
              std::move(n.truth_type));
  }
  PGHIVE_ASSIGN_OR_RETURN(uint64_t num_edges, r->ReadU64());
  for (uint64_t i = 0; i < num_edges; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(EdgeData e, DecodeEdge(r));
    if (e.id != i) {
      return Status::ParseError("graph edge ids must be dense 0..m-1");
    }
    auto added = g.AddEdge(e.source, e.target, std::move(e.labels),
                           std::move(e.properties), std::move(e.truth_type));
    if (!added.ok()) {
      return Status::ParseError("graph edge references missing endpoint: " +
                                added.status().message());
    }
  }
  return g;
}

namespace {

void EncodeStringTable(const SymbolTable& table, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(table.size()));
  for (size_t i = 0; i < table.size(); ++i) {
    w->WriteString(table.name(static_cast<SymbolId>(i)));
  }
}

Status DecodeStringTable(BinaryReader* r, SymbolTable* table) {
  PGHIVE_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  for (uint32_t i = 0; i < n; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(std::string name, r->ReadString());
    if (table->Intern(name) != i) {
      return Status::ParseError("symbol table contains a duplicate string");
    }
  }
  return Status::OK();
}

void EncodeSetPool(const SymbolSetPool& pool, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(pool.size()));
  for (size_t s = 0; s < pool.size(); ++s) {
    const auto& ids = pool.ids(static_cast<SymbolSetId>(s));
    w->WriteU32(static_cast<uint32_t>(ids.size()));
    for (SymbolId id : ids) w->WriteU32(id);
  }
}

Status DecodeSetPool(BinaryReader* r, const SymbolTable& table,
                     SymbolSetPool* pool) {
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_sets, r->ReadU32());
  std::vector<std::string_view> members;
  for (uint32_t s = 0; s < num_sets; ++s) {
    PGHIVE_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
    members.clear();
    members.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      PGHIVE_ASSIGN_OR_RETURN(uint32_t id, r->ReadU32());
      if (id >= table.size()) {
        return Status::ParseError("symbol set references an unknown symbol");
      }
      std::string_view name = table.name(id);
      if (!members.empty() && members.back() >= name) {
        return Status::ParseError("symbol set is not in canonical order");
      }
      members.push_back(name);
    }
    // Re-interning in file order must reproduce the dense id sequence; the
    // pre-interned empty set at id 0 lines up because every writer context
    // starts with it too.
    if (pool->InternSorted(members) != s) {
      return Status::ParseError("symbol set pool is not canonical");
    }
  }
  return Status::OK();
}

}  // namespace

void EncodeSymbols(const GraphSymbols& sym, BinaryWriter* w) {
  EncodeStringTable(sym.labels, w);
  EncodeStringTable(sym.keys, w);
  EncodeSetPool(sym.label_sets, w);
  EncodeSetPool(sym.key_sets, w);
}

Result<std::shared_ptr<GraphSymbols>> DecodeSymbols(BinaryReader* r) {
  auto sym = std::make_shared<GraphSymbols>();
  PGHIVE_RETURN_NOT_OK(DecodeStringTable(r, &sym->labels));
  PGHIVE_RETURN_NOT_OK(DecodeStringTable(r, &sym->keys));
  PGHIVE_RETURN_NOT_OK(DecodeSetPool(r, sym->labels, &sym->label_sets));
  PGHIVE_RETURN_NOT_OK(DecodeSetPool(r, sym->keys, &sym->key_sets));
  return sym;
}

void EncodeGraphColumnar(const PropertyGraph& g, BinaryWriter* w) {
  w->WriteU64(g.num_nodes());
  for (const Node& n : g.nodes()) {
    w->WriteU32(n.label_set);
    w->WriteU32(n.key_set);
    for (size_t i = 0; i < n.properties.size(); ++i) {
      EncodeValue(n.properties.value_at(i), w);
    }
    w->WriteString(n.truth_type);
  }
  w->WriteU64(g.num_edges());
  for (const Edge& e : g.edges()) {
    w->WriteU64(e.source);
    w->WriteU64(e.target);
    w->WriteU32(e.label_set);
    w->WriteU32(e.key_set);
    for (size_t i = 0; i < e.properties.size(); ++i) {
      EncodeValue(e.properties.value_at(i), w);
    }
    w->WriteString(e.truth_type);
  }
}

Result<PropertyGraph> DecodeGraphColumnar(
    BinaryReader* r, std::shared_ptr<GraphSymbols> symbols) {
  const GraphSymbols& sym = *symbols;
  PropertyGraph g(std::move(symbols));
  PGHIVE_ASSIGN_OR_RETURN(uint64_t num_nodes, r->ReadU64());
  for (uint64_t i = 0; i < num_nodes; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(uint32_t label_set, r->ReadU32());
    PGHIVE_ASSIGN_OR_RETURN(uint32_t key_set, r->ReadU32());
    if (key_set >= sym.key_sets.size()) {
      return Status::ParseError("node references an unknown key set");
    }
    std::vector<Value> values;
    values.reserve(sym.key_sets.set_size(key_set));
    for (size_t v = 0; v < sym.key_sets.set_size(key_set); ++v) {
      PGHIVE_ASSIGN_OR_RETURN(Value value, DecodeValue(r));
      values.push_back(std::move(value));
    }
    PGHIVE_ASSIGN_OR_RETURN(std::string truth, r->ReadString());
    Result<NodeId> added = g.AddNodeInterned(label_set, key_set,
                                             std::move(values),
                                             std::move(truth));
    if (!added.ok()) {
      return Status::ParseError("columnar node invalid: " +
                                added.status().message());
    }
  }
  PGHIVE_ASSIGN_OR_RETURN(uint64_t num_edges, r->ReadU64());
  for (uint64_t i = 0; i < num_edges; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(uint64_t source, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(uint64_t target, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(uint32_t label_set, r->ReadU32());
    PGHIVE_ASSIGN_OR_RETURN(uint32_t key_set, r->ReadU32());
    if (key_set >= sym.key_sets.size()) {
      return Status::ParseError("edge references an unknown key set");
    }
    std::vector<Value> values;
    values.reserve(sym.key_sets.set_size(key_set));
    for (size_t v = 0; v < sym.key_sets.set_size(key_set); ++v) {
      PGHIVE_ASSIGN_OR_RETURN(Value value, DecodeValue(r));
      values.push_back(std::move(value));
    }
    PGHIVE_ASSIGN_OR_RETURN(std::string truth, r->ReadString());
    Result<EdgeId> added =
        g.AddEdgeInterned(source, target, label_set, key_set,
                          std::move(values), std::move(truth));
    if (!added.ok()) {
      return Status::ParseError("columnar edge invalid: " +
                                added.status().message());
    }
  }
  return g;
}

Result<BatchPayload> DecodeBatchPayload(BinaryReader* r) {
  BatchPayload p;
  PGHIVE_ASSIGN_OR_RETURN(uint64_t num_nodes, r->ReadU64());
  p.nodes.reserve(num_nodes < 4096 ? num_nodes : 4096);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(NodeData n, DecodeNode(r));
    p.nodes.push_back(std::move(n));
  }
  PGHIVE_ASSIGN_OR_RETURN(uint64_t num_edges, r->ReadU64());
  p.edges.reserve(num_edges < 4096 ? num_edges : 4096);
  for (uint64_t i = 0; i < num_edges; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(EdgeData e, DecodeEdge(r));
    p.edges.push_back(std::move(e));
  }
  if (!r->AtEnd()) {
    return Status::ParseError("trailing bytes after batch payload");
  }
  return p;
}

namespace {

/// Batch-local dictionary for the v2 journal payload: distinct strings and
/// distinct (sorted) string sets in first-seen order.
class BatchDict {
 public:
  uint32_t StringRef(const std::string& s) {
    auto [it, fresh] =
        string_ids_.emplace(s, static_cast<uint32_t>(strings_.size()));
    if (fresh) strings_.push_back(&it->first);
    return it->second;
  }

  /// `strings` iterates in canonical (sorted) order; member refs are stored
  /// in that order so decoded sets/maps rebuild positionally.
  template <typename Strings>
  uint32_t SetRef(const Strings& strings) {
    std::vector<uint32_t> refs;
    for (const auto& s : strings) refs.push_back(StringRef(s));
    auto [it, fresh] =
        set_ids_.emplace(std::move(refs), static_cast<uint32_t>(sets_.size()));
    if (fresh) sets_.push_back(&it->first);
    return it->second;
  }

  void Encode(BinaryWriter* w) const {
    w->WriteU32(static_cast<uint32_t>(strings_.size()));
    for (const std::string* s : strings_) w->WriteString(*s);
    w->WriteU32(static_cast<uint32_t>(sets_.size()));
    for (const std::vector<uint32_t>* set : sets_) {
      w->WriteU32(static_cast<uint32_t>(set->size()));
      for (uint32_t ref : *set) w->WriteU32(ref);
    }
  }

 private:
  // Pointers into the maps' own keys (node-based containers: stable).
  std::vector<const std::string*> strings_;
  std::unordered_map<std::string, uint32_t> string_ids_;
  std::vector<const std::vector<uint32_t>*> sets_;
  std::map<std::vector<uint32_t>, uint32_t> set_ids_;
};

struct BatchDictDecoded {
  std::vector<std::string> strings;
  std::vector<std::vector<uint32_t>> sets;
};

Result<BatchDictDecoded> DecodeBatchDict(BinaryReader* r) {
  BatchDictDecoded d;
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_strings, r->ReadU32());
  d.strings.reserve(num_strings < 65536 ? num_strings : 65536);
  for (uint32_t i = 0; i < num_strings; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(std::string s, r->ReadString());
    d.strings.push_back(std::move(s));
  }
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_sets, r->ReadU32());
  d.sets.reserve(num_sets < 65536 ? num_sets : 65536);
  for (uint32_t i = 0; i < num_sets; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
    std::vector<uint32_t> refs;
    refs.reserve(n < 65536 ? n : 65536);
    for (uint32_t j = 0; j < n; ++j) {
      PGHIVE_ASSIGN_OR_RETURN(uint32_t ref, r->ReadU32());
      if (ref >= d.strings.size()) {
        return Status::ParseError("batch set references an unknown string");
      }
      refs.push_back(ref);
    }
    d.sets.push_back(std::move(refs));
  }
  return d;
}

Status RebuildLabels(const BatchDictDecoded& d, uint32_t set_ref,
                     std::set<std::string>* labels) {
  if (set_ref >= d.sets.size()) {
    return Status::ParseError("batch element references an unknown set");
  }
  for (uint32_t ref : d.sets[set_ref]) labels->insert(d.strings[ref]);
  return Status::OK();
}

Status RebuildProperties(const BatchDictDecoded& d, uint32_t set_ref,
                         BinaryReader* r,
                         std::map<std::string, Value>* props) {
  if (set_ref >= d.sets.size()) {
    return Status::ParseError("batch element references an unknown set");
  }
  for (uint32_t ref : d.sets[set_ref]) {
    PGHIVE_ASSIGN_OR_RETURN(Value v, DecodeValue(r));
    props->emplace(d.strings[ref], std::move(v));
  }
  return Status::OK();
}

struct PropertyKeysOf {
  const std::map<std::string, Value>& props;
  struct iterator {
    std::map<std::string, Value>::const_iterator it;
    const std::string& operator*() const { return it->first; }
    iterator& operator++() { ++it; return *this; }
    bool operator!=(const iterator& o) const { return it != o.it; }
  };
  iterator begin() const { return {props.begin()}; }
  iterator end() const { return {props.end()}; }
};

/// The v2 insert half: a batch-local dictionary, then the element rows as
/// set references. v3 payloads start with it.
void EncodeBatchPayloadV2Body(const std::vector<NodeData>& nodes,
                              const std::vector<EdgeData>& edges,
                              BinaryWriter* w) {
  // Pass 1: build the batch-local dictionary and each element's set refs.
  BatchDict dict;
  std::vector<std::pair<uint32_t, uint32_t>> node_refs, edge_refs;
  node_refs.reserve(nodes.size());
  for (const NodeData& n : nodes) {
    node_refs.emplace_back(dict.SetRef(n.labels),
                           dict.SetRef(PropertyKeysOf{n.properties}));
  }
  edge_refs.reserve(edges.size());
  for (const EdgeData& e : edges) {
    edge_refs.emplace_back(dict.SetRef(e.labels),
                           dict.SetRef(PropertyKeysOf{e.properties}));
  }
  // Pass 2: dictionary, then the interned element rows.
  dict.Encode(w);
  w->WriteU64(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeData& n = nodes[i];
    w->WriteU64(n.id);
    w->WriteU32(node_refs[i].first);
    w->WriteU32(node_refs[i].second);
    for (const auto& [k, v] : n.properties) EncodeValue(v, w);
    w->WriteString(n.truth_type);
  }
  w->WriteU64(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    const EdgeData& e = edges[i];
    w->WriteU64(e.id);
    w->WriteU64(e.source);
    w->WriteU64(e.target);
    w->WriteU32(edge_refs[i].first);
    w->WriteU32(edge_refs[i].second);
    for (const auto& [k, v] : e.properties) EncodeValue(v, w);
    w->WriteString(e.truth_type);
  }
}

/// The v2 insert half without the trailing-bytes check — v2 payloads end
/// here, v3 payloads continue with the mutation arrays.
Result<BatchPayload> DecodeBatchPayloadV2Body(BinaryReader* r) {
  PGHIVE_ASSIGN_OR_RETURN(BatchDictDecoded dict, DecodeBatchDict(r));
  BatchPayload p;
  PGHIVE_ASSIGN_OR_RETURN(uint64_t num_nodes, r->ReadU64());
  p.nodes.reserve(num_nodes < 4096 ? num_nodes : 4096);
  for (uint64_t i = 0; i < num_nodes; ++i) {
    NodeData n;
    PGHIVE_ASSIGN_OR_RETURN(n.id, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(uint32_t labels_ref, r->ReadU32());
    PGHIVE_ASSIGN_OR_RETURN(uint32_t keys_ref, r->ReadU32());
    PGHIVE_RETURN_NOT_OK(RebuildLabels(dict, labels_ref, &n.labels));
    PGHIVE_RETURN_NOT_OK(RebuildProperties(dict, keys_ref, r, &n.properties));
    PGHIVE_ASSIGN_OR_RETURN(n.truth_type, r->ReadString());
    p.nodes.push_back(std::move(n));
  }
  PGHIVE_ASSIGN_OR_RETURN(uint64_t num_edges, r->ReadU64());
  p.edges.reserve(num_edges < 4096 ? num_edges : 4096);
  for (uint64_t i = 0; i < num_edges; ++i) {
    EdgeData e;
    PGHIVE_ASSIGN_OR_RETURN(e.id, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(e.source, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(e.target, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(uint32_t labels_ref, r->ReadU32());
    PGHIVE_ASSIGN_OR_RETURN(uint32_t keys_ref, r->ReadU32());
    PGHIVE_RETURN_NOT_OK(RebuildLabels(dict, labels_ref, &e.labels));
    PGHIVE_RETURN_NOT_OK(RebuildProperties(dict, keys_ref, r, &e.properties));
    PGHIVE_ASSIGN_OR_RETURN(e.truth_type, r->ReadString());
    p.edges.push_back(std::move(e));
  }
  return p;
}

}  // namespace

Result<BatchPayload> DecodeBatchPayloadV2(BinaryReader* r) {
  PGHIVE_ASSIGN_OR_RETURN(BatchPayload p, DecodeBatchPayloadV2Body(r));
  if (!r->AtEnd()) {
    return Status::ParseError("trailing bytes after batch payload");
  }
  return p;
}

void EncodeBatchPayloadV3(const BatchPayload& payload, BinaryWriter* w) {
  EncodeBatchPayloadV2Body(payload.nodes, payload.edges, w);
  const GraphMutations& m = payload.mutations;
  EncodeIdVector(m.delete_nodes, w);
  EncodeIdVector(m.delete_edges, w);
  w->WriteU32(static_cast<uint32_t>(m.update_nodes.size()));
  for (const NodeUpdate& u : m.update_nodes) {
    w->WriteU64(u.id);
    EncodeNode(u.data, w);
  }
  w->WriteU32(static_cast<uint32_t>(m.update_edges.size()));
  for (const EdgeUpdate& u : m.update_edges) {
    w->WriteU64(u.id);
    EncodeEdge(u.data, w);
  }
}

Result<BatchPayload> DecodeBatchPayloadV3(BinaryReader* r) {
  PGHIVE_ASSIGN_OR_RETURN(BatchPayload p, DecodeBatchPayloadV2Body(r));
  GraphMutations& m = p.mutations;
  PGHIVE_ASSIGN_OR_RETURN(m.delete_nodes, DecodeIdVector(r));
  PGHIVE_ASSIGN_OR_RETURN(m.delete_edges, DecodeIdVector(r));
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_node_updates, r->ReadU32());
  m.update_nodes.reserve(num_node_updates < 4096 ? num_node_updates : 4096);
  for (uint32_t i = 0; i < num_node_updates; ++i) {
    NodeUpdate u;
    PGHIVE_ASSIGN_OR_RETURN(u.id, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(u.data, DecodeNode(r));
    m.update_nodes.push_back(std::move(u));
  }
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_edge_updates, r->ReadU32());
  m.update_edges.reserve(num_edge_updates < 4096 ? num_edge_updates : 4096);
  for (uint32_t i = 0; i < num_edge_updates; ++i) {
    EdgeUpdate u;
    PGHIVE_ASSIGN_OR_RETURN(u.id, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(u.data, DecodeEdge(r));
    m.update_edges.push_back(std::move(u));
  }
  if (!r->AtEnd()) {
    return Status::ParseError("trailing bytes after batch payload");
  }
  return p;
}

void EncodeSchema(const SchemaGraph& schema, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(schema.node_types.size()));
  for (const auto& t : schema.node_types) {
    w->WriteString(t.name);
    EncodeStringSet(t.labels, w);
    EncodeStringSet(t.property_keys, w);
    EncodeConstraints(t.constraints, w);
    w->WriteU8(t.is_abstract ? 1 : 0);
    EncodeIdVector(t.instances, w);
  }
  w->WriteU32(static_cast<uint32_t>(schema.edge_types.size()));
  for (const auto& t : schema.edge_types) {
    w->WriteString(t.name);
    EncodeStringSet(t.labels, w);
    EncodeStringSet(t.property_keys, w);
    EncodeConstraints(t.constraints, w);
    EncodeStringSet(t.source_labels, w);
    EncodeStringSet(t.target_labels, w);
    w->WriteU8(static_cast<uint8_t>(t.cardinality));
    w->WriteU64(t.max_out_degree);
    w->WriteU64(t.max_in_degree);
    w->WriteU8(t.is_abstract ? 1 : 0);
    EncodeIdVector(t.instances, w);
  }
}

Result<SchemaGraph> DecodeSchema(BinaryReader* r) {
  SchemaGraph schema;
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_node_types, r->ReadU32());
  schema.node_types.reserve(num_node_types < 4096 ? num_node_types : 4096);
  for (uint32_t i = 0; i < num_node_types; ++i) {
    SchemaNodeType t;
    PGHIVE_ASSIGN_OR_RETURN(t.name, r->ReadString());
    PGHIVE_ASSIGN_OR_RETURN(t.labels, DecodeStringSet(r));
    PGHIVE_ASSIGN_OR_RETURN(t.property_keys, DecodeStringSet(r));
    PGHIVE_ASSIGN_OR_RETURN(t.constraints, DecodeConstraints(r));
    PGHIVE_ASSIGN_OR_RETURN(uint8_t is_abstract, r->ReadU8());
    t.is_abstract = is_abstract != 0;
    PGHIVE_ASSIGN_OR_RETURN(t.instances, DecodeIdVector(r));
    schema.node_types.push_back(std::move(t));
  }
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_edge_types, r->ReadU32());
  schema.edge_types.reserve(num_edge_types < 4096 ? num_edge_types : 4096);
  for (uint32_t i = 0; i < num_edge_types; ++i) {
    SchemaEdgeType t;
    PGHIVE_ASSIGN_OR_RETURN(t.name, r->ReadString());
    PGHIVE_ASSIGN_OR_RETURN(t.labels, DecodeStringSet(r));
    PGHIVE_ASSIGN_OR_RETURN(t.property_keys, DecodeStringSet(r));
    PGHIVE_ASSIGN_OR_RETURN(t.constraints, DecodeConstraints(r));
    PGHIVE_ASSIGN_OR_RETURN(t.source_labels, DecodeStringSet(r));
    PGHIVE_ASSIGN_OR_RETURN(t.target_labels, DecodeStringSet(r));
    PGHIVE_ASSIGN_OR_RETURN(uint8_t cardinality, r->ReadU8());
    if (cardinality > static_cast<uint8_t>(SchemaCardinality::kManyToMany)) {
      return BadTag("cardinality", cardinality);
    }
    t.cardinality = static_cast<SchemaCardinality>(cardinality);
    PGHIVE_ASSIGN_OR_RETURN(t.max_out_degree, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(t.max_in_degree, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(uint8_t is_abstract, r->ReadU8());
    t.is_abstract = is_abstract != 0;
    PGHIVE_ASSIGN_OR_RETURN(t.instances, DecodeIdVector(r));
    schema.edge_types.push_back(std::move(t));
  }
  return schema;
}

namespace {

/// ParseError unless the `i`-th decoded entry of an id-keyed map is
/// canonical: ids strictly increasing, counts nonzero (the writer emits
/// ordered maps and erases entries at count zero).
Status CheckCanonicalEntry(uint32_t i, uint64_t id, uint64_t prev_id,
                           uint64_t count, const char* what) {
  if (i > 0 && id <= prev_id) {
    return Status::ParseError(std::string(what) +
                              " ids not strictly increasing");
  }
  if (count == 0) {
    return Status::ParseError(std::string("zero count in ") + what);
  }
  return Status::OK();
}

/// Counted degree map (snapshot v4+): sorted endpoints, per endpoint the
/// sorted (neighbour, multiplicity) pairs. The degree histograms are a pure
/// function of this map, so they are rebuilt on decode rather than stored.
void EncodeCountedDegreeMap(
    const std::unordered_map<NodeId, std::unordered_map<NodeId, uint64_t>>& m,
    BinaryWriter* w) {
  std::vector<NodeId> endpoints;
  endpoints.reserve(m.size());
  for (const auto& [endpoint, others] : m) endpoints.push_back(endpoint);
  std::sort(endpoints.begin(), endpoints.end());
  w->WriteU32(static_cast<uint32_t>(endpoints.size()));
  for (NodeId endpoint : endpoints) {
    const auto& others = m.at(endpoint);
    std::vector<std::pair<NodeId, uint64_t>> sorted(others.begin(),
                                                    others.end());
    std::sort(sorted.begin(), sorted.end());
    w->WriteU64(endpoint);
    w->WriteU32(static_cast<uint32_t>(sorted.size()));
    for (const auto& [other, count] : sorted) {
      w->WriteU64(other);
      w->WriteU64(count);
    }
  }
}

Result<std::unordered_map<NodeId, std::unordered_map<NodeId, uint64_t>>>
DecodeCountedDegreeMap(BinaryReader* r,
                       std::map<uint64_t, uint64_t>* degree_hist) {
  std::unordered_map<NodeId, std::unordered_map<NodeId, uint64_t>> m;
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_endpoints, r->ReadU32());
  uint64_t prev_endpoint = 0;
  for (uint32_t i = 0; i < num_endpoints; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(uint64_t endpoint, r->ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(uint32_t num_others, r->ReadU32());
    // An endpoint's count is its neighbour count: the writer erases an
    // endpoint with its last neighbour.
    PGHIVE_RETURN_NOT_OK(CheckCanonicalEntry(i, endpoint, prev_endpoint,
                                             num_others,
                                             "degree map endpoint"));
    prev_endpoint = endpoint;
    auto& others = m[static_cast<NodeId>(endpoint)];
    uint64_t prev_other = 0;
    for (uint32_t j = 0; j < num_others; ++j) {
      PGHIVE_ASSIGN_OR_RETURN(uint64_t other, r->ReadU64());
      PGHIVE_ASSIGN_OR_RETURN(uint64_t count, r->ReadU64());
      PGHIVE_RETURN_NOT_OK(CheckCanonicalEntry(j, other, prev_other, count,
                                               "degree map neighbour"));
      prev_other = other;
      others[static_cast<NodeId>(other)] = count;
    }
    ++(*degree_hist)[num_others];
  }
  return m;
}

template <typename Id>
void EncodeCountMap(const std::map<Id, uint64_t>& m, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(m.size()));
  for (const auto& [id, n] : m) {
    w->WriteU32(static_cast<uint32_t>(id));
    w->WriteU64(n);
  }
}

template <typename Id>
Status DecodeCountMap(BinaryReader* r, const char* what,
                      std::map<Id, uint64_t>* m) {
  PGHIVE_ASSIGN_OR_RETURN(uint32_t entries, r->ReadU32());
  uint32_t prev = 0;
  for (uint32_t i = 0; i < entries; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(uint32_t id, r->ReadU32());
    PGHIVE_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
    PGHIVE_RETURN_NOT_OK(CheckCanonicalEntry(i, id, prev, n, what));
    prev = id;
    m->emplace_hint(m->end(), static_cast<Id>(id), n);
  }
  return Status::OK();
}

void EncodeTypeAggregate(const TypeAggregate& a, BinaryWriter* w) {
  w->WriteU64(a.folded);
  EncodeCountMap(a.key_set_counts, w);
  EncodeCountMap(a.label_set_counts, w);
  w->WriteU32(static_cast<uint32_t>(a.keys.size()));
  for (const auto& [sid, pa] : a.keys) {
    w->WriteU32(sid);
    w->WriteU64(pa.present);
    for (uint64_t c : pa.type_counts) w->WriteU64(c);
  }
  EncodeCountMap(a.src_set_counts, w);
  EncodeCountMap(a.tgt_set_counts, w);
  EncodeCountedDegreeMap(a.out_counts, w);
  EncodeCountedDegreeMap(a.in_counts, w);
}

Result<TypeAggregate> DecodeTypeAggregate(BinaryReader* r,
                                          uint32_t version) {
  // v4 key entries end in a numeric count/min/max triple (u64 + 2 doubles)
  // that nothing reads; it is skipped.
  constexpr size_t kV4NumericTripleBytes =
      sizeof(uint64_t) + 2 * sizeof(double);
  TypeAggregate a;
  PGHIVE_ASSIGN_OR_RETURN(a.folded, r->ReadU64());
  PGHIVE_RETURN_NOT_OK(
      DecodeCountMap(r, "aggregate key-set", &a.key_set_counts));
  PGHIVE_RETURN_NOT_OK(
      DecodeCountMap(r, "aggregate label-set", &a.label_set_counts));
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_keys, r->ReadU32());
  uint32_t prev_sid = 0;
  for (uint32_t i = 0; i < num_keys; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(uint32_t sid, r->ReadU32());
    PropertyAggregate pa;
    PGHIVE_ASSIGN_OR_RETURN(pa.present, r->ReadU64());
    for (size_t d = 0; d < kNumDataTypes; ++d) {
      PGHIVE_ASSIGN_OR_RETURN(pa.type_counts[d], r->ReadU64());
    }
    if (version == 4) {
      PGHIVE_RETURN_NOT_OK(r->ReadBytes(kV4NumericTripleBytes).status());
    }
    PGHIVE_RETURN_NOT_OK(
        CheckCanonicalEntry(i, sid, prev_sid, pa.present, "aggregate key"));
    prev_sid = sid;
    a.keys.emplace_hint(a.keys.end(), static_cast<SymbolId>(sid), pa);
  }
  PGHIVE_RETURN_NOT_OK(
      DecodeCountMap(r, "aggregate source label-set", &a.src_set_counts));
  PGHIVE_RETURN_NOT_OK(
      DecodeCountMap(r, "aggregate target label-set", &a.tgt_set_counts));
  PGHIVE_ASSIGN_OR_RETURN(a.out_counts,
                          DecodeCountedDegreeMap(r, &a.out_degree_hist));
  PGHIVE_ASSIGN_OR_RETURN(a.in_counts,
                          DecodeCountedDegreeMap(r, &a.in_degree_hist));
  return a;
}

}  // namespace

void EncodeAggregates(const SchemaAggregates& agg, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(agg.node_types.size()));
  for (const auto& a : agg.node_types) EncodeTypeAggregate(a, w);
  w->WriteU32(static_cast<uint32_t>(agg.edge_types.size()));
  for (const auto& a : agg.edge_types) EncodeTypeAggregate(a, w);
}

Result<SchemaAggregates> DecodeAggregates(BinaryReader* r, uint32_t version) {
  SchemaAggregates agg;
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_node_types, r->ReadU32());
  agg.node_types.reserve(num_node_types < 4096 ? num_node_types : 4096);
  for (uint32_t i = 0; i < num_node_types; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(TypeAggregate a, DecodeTypeAggregate(r, version));
    agg.node_types.push_back(std::move(a));
  }
  PGHIVE_ASSIGN_OR_RETURN(uint32_t num_edge_types, r->ReadU32());
  agg.edge_types.reserve(num_edge_types < 4096 ? num_edge_types : 4096);
  for (uint32_t i = 0; i < num_edge_types; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(TypeAggregate a, DecodeTypeAggregate(r, version));
    agg.edge_types.push_back(std::move(a));
  }
  return agg;
}

void EncodeAdaptiveParams(const AdaptiveLshParams& p, BinaryWriter* w) {
  w->WriteDouble(p.mu);
  w->WriteDouble(p.b_base);
  w->WriteDouble(p.alpha);
  w->WriteDouble(p.bucket_length);
  w->WriteU32(static_cast<uint32_t>(p.num_tables));
}

Result<AdaptiveLshParams> DecodeAdaptiveParams(BinaryReader* r) {
  AdaptiveLshParams p;
  PGHIVE_ASSIGN_OR_RETURN(p.mu, r->ReadDouble());
  PGHIVE_ASSIGN_OR_RETURN(p.b_base, r->ReadDouble());
  PGHIVE_ASSIGN_OR_RETURN(p.alpha, r->ReadDouble());
  PGHIVE_ASSIGN_OR_RETURN(p.bucket_length, r->ReadDouble());
  PGHIVE_ASSIGN_OR_RETURN(uint32_t tables, r->ReadU32());
  p.num_tables = static_cast<int>(tables);
  return p;
}

}  // namespace store
}  // namespace pghive
