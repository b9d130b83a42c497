#include "graph/csv_io.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/csv.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace pghive {

namespace {

std::string LabelsCell(const std::set<std::string>& labels) {
  return Join(labels, ";");
}

std::set<std::string> ParseLabelsCell(std::string_view cell) {
  std::set<std::string> labels;
  for (std::string& part : Split(cell, ';')) {
    if (!part.empty()) labels.insert(std::move(part));
  }
  return labels;
}

// True when `cell` is `index` written exactly as std::to_string writes it.
bool IsRowIndex(std::string_view cell, uint64_t index) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), index);
  return std::string_view(buf, static_cast<size_t>(end - buf)) == cell;
}

// Parses a complete unsigned decimal that fits in 64 bits: no sign, no
// blanks, nothing after the digits.
bool ParseNodeId(std::string_view cell, NodeId* id) {
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, *id);
  return ec == std::errc() && ptr == end;
}

struct ViewHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>()(s);
  }
};

// Interns the rows of one CSV file. Two memos turn a row's label and key
// sets into two hash lookups: the raw label cell -> LabelSetId, and the set
// of non-empty property columns -> KeySetId. A miss interns through the
// pools exactly as AddNode does (the label set, then the key set, in row
// order), so every symbol id keeps its first-seen order.
class RowInterner {
 public:
  RowInterner(GraphSymbols* symbols, std::vector<std::string> header,
              size_t first_property)
      : symbols_(symbols), header_(std::move(header)) {
    for (size_t c = first_property; c < header_.size(); ++c) {
      columns_.push_back(c);
    }
    // Canonical key order. The sort is stable, so among columns sharing a
    // name the leftmost comes first.
    std::stable_sort(columns_.begin(), columns_.end(), [&](size_t a, size_t b) {
      return header_[a] < header_[b];
    });
    size_t rank = 0;
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (i > 0 && header_[columns_[i]] != header_[columns_[i - 1]]) ++rank;
      name_rank_.push_back(rank);
    }
  }

  size_t width() const { return header_.size(); }

  LabelSetId Labels(std::string_view cell) {
    auto it = label_memo_.find(cell);
    if (it != label_memo_.end()) return it->second;
    const LabelSetId id = symbols_->label_sets.Intern(ParseLabelsCell(cell));
    label_memo_.emplace(std::string(cell), id);
    return id;
  }

  // The key set of the row's non-empty property cells; `values` receives
  // their parsed values in canonical key order. When several columns share
  // a name, the first non-empty one wins.
  KeySetId Properties(const std::vector<std::string_view>& row,
                      std::vector<Value>* values) {
    mask_.assign((columns_.size() + 7) / 8, '\0');
    picked_.clear();
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (row[columns_[i]].empty()) continue;
      mask_[i / 8] = static_cast<char>(mask_[i / 8] | (1 << (i % 8)));
      if (!picked_.empty() && name_rank_[picked_.back()] == name_rank_[i]) {
        continue;
      }
      picked_.push_back(i);
    }
    values->clear();
    values->reserve(picked_.size());
    for (size_t i : picked_) values->push_back(ParseValue(row[columns_[i]]));

    auto it = key_memo_.find(mask_);
    if (it != key_memo_.end()) return it->second;
    std::vector<std::string_view> keys;
    keys.reserve(picked_.size());
    for (size_t i : picked_) keys.push_back(header_[columns_[i]]);
    const KeySetId id = symbols_->key_sets.InternSorted(keys);
    key_memo_.emplace(mask_, id);
    return id;
  }

 private:
  GraphSymbols* symbols_;
  std::vector<std::string> header_;
  std::vector<size_t> columns_;    // property columns in canonical order
  std::vector<size_t> name_rank_;  // distinct-name rank of each columns_[i]
  std::unordered_map<std::string, LabelSetId, ViewHash, std::equal_to<>>
      label_memo_;
  std::unordered_map<std::string, KeySetId> key_memo_;
  std::string mask_;            // bit i: the cell of columns_[i] is non-empty
  std::vector<size_t> picked_;  // positions in columns_ that give a value
};

// The first record of a CSV file, owned (the cursor's views last only
// until its next record).
Result<std::vector<std::string>> ReadHeader(CsvCursor* cursor) {
  PGHIVE_ASSIGN_OR_RETURN(bool any, cursor->Next());
  if (!any) return Status::ParseError("missing CSV header row");
  return std::vector<std::string>(cursor->fields().begin(),
                                  cursor->fields().end());
}

}  // namespace

std::string NodesToCsv(const PropertyGraph& g) {
  std::vector<std::string> keys = g.NodePropertyKeys();
  std::string out;
  std::vector<std::string> header = {"id", "labels", "truth"};
  header.insert(header.end(), keys.begin(), keys.end());
  out += FormatCsvRow(header);
  for (const auto& n : g.nodes()) {
    std::vector<std::string> row = {std::to_string(n.id),
                                    LabelsCell(n.labels), n.truth_type};
    for (const auto& k : keys) {
      auto it = n.properties.find(k);
      row.push_back(it == n.properties.end() ? "" : it->second.ToText());
    }
    out += FormatCsvRow(row);
  }
  return out;
}

std::string EdgesToCsv(const PropertyGraph& g) {
  std::vector<std::string> keys = g.EdgePropertyKeys();
  std::string out;
  std::vector<std::string> header = {"src", "tgt", "labels", "truth"};
  header.insert(header.end(), keys.begin(), keys.end());
  out += FormatCsvRow(header);
  for (const auto& e : g.edges()) {
    std::vector<std::string> row = {std::to_string(e.source),
                                    std::to_string(e.target),
                                    LabelsCell(e.labels), e.truth_type};
    for (const auto& k : keys) {
      auto it = e.properties.find(k);
      row.push_back(it == e.properties.end() ? "" : it->second.ToText());
    }
    out += FormatCsvRow(row);
  }
  return out;
}

Result<PropertyGraph> GraphFromCsv(const std::string& nodes_csv,
                                   const std::string& edges_csv) {
  obs::ScopedSpan span("graph.from_csv");
  CsvCursor node_rows(nodes_csv);
  CsvCursor edge_rows(edges_csv);
  PGHIVE_ASSIGN_OR_RETURN(auto nheader, ReadHeader(&node_rows));
  PGHIVE_ASSIGN_OR_RETURN(auto eheader, ReadHeader(&edge_rows));
  if (nheader.size() < 3 || nheader[0] != "id" || nheader[1] != "labels" ||
      nheader[2] != "truth") {
    return Status::ParseError("bad node CSV header");
  }
  if (eheader.size() < 4 || eheader[0] != "src" || eheader[1] != "tgt" ||
      eheader[2] != "labels" || eheader[3] != "truth") {
    return Status::ParseError("bad edge CSV header");
  }

  // Built the way the snapshot decoder builds a graph: intern into the
  // symbol context, then append elements by id.
  auto symbols = std::make_shared<GraphSymbols>();
  GraphSymbols* sym = symbols.get();
  PropertyGraph g(std::move(symbols));
  std::vector<Value> values;

  RowInterner nodes(sym, std::move(nheader), 3);
  for (size_t r = 1;; ++r) {
    PGHIVE_ASSIGN_OR_RETURN(bool more, node_rows.Next());
    if (!more) break;
    const std::vector<std::string_view>& row = node_rows.fields();
    if (row.size() != nodes.width()) {
      return Status::ParseError("node row " + std::to_string(r) +
                                " has wrong field count");
    }
    if (!IsRowIndex(row[0], g.num_nodes())) {
      return Status::ParseError("node ids must be dense 0..n-1 in row order");
    }
    const LabelSetId labels = nodes.Labels(row[1]);
    const KeySetId keys = nodes.Properties(row, &values);
    PGHIVE_RETURN_NOT_OK(g.AddNodeInterned(labels, keys, std::move(values),
                                           std::string(row[2]))
                             .status());
  }

  RowInterner edges(sym, std::move(eheader), 4);
  for (size_t r = 1;; ++r) {
    PGHIVE_ASSIGN_OR_RETURN(bool more, edge_rows.Next());
    if (!more) break;
    const std::vector<std::string_view>& row = edge_rows.fields();
    if (row.size() != edges.width()) {
      return Status::ParseError("edge row " + std::to_string(r) +
                                " has wrong field count");
    }
    NodeId src = 0, tgt = 0;
    if (!ParseNodeId(row[0], &src) || !ParseNodeId(row[1], &tgt)) {
      return Status::ParseError("bad edge endpoint id in row " +
                                std::to_string(r));
    }
    const LabelSetId labels = edges.Labels(row[2]);
    const KeySetId keys = edges.Properties(row, &values);
    PGHIVE_RETURN_NOT_OK(g.AddEdgeInterned(src, tgt, labels, keys,
                                           std::move(values),
                                           std::string(row[3]))
                             .status());
  }

  if (span.recording()) {
    span.AddAttr("nodes", static_cast<uint64_t>(g.num_nodes()));
    span.AddAttr("edges", static_cast<uint64_t>(g.num_edges()));
    span.AddAttr("bytes",
                 static_cast<uint64_t>(nodes_csv.size() + edges_csv.size()));
  }
  return g;
}

Status SaveGraphCsv(const PropertyGraph& g, const std::string& prefix) {
  PGHIVE_RETURN_NOT_OK(WriteFile(prefix + ".nodes.csv", NodesToCsv(g)));
  return WriteFile(prefix + ".edges.csv", EdgesToCsv(g));
}

Result<PropertyGraph> LoadGraphCsv(const std::string& prefix) {
  PGHIVE_ASSIGN_OR_RETURN(auto nodes, ReadFile(prefix + ".nodes.csv"));
  PGHIVE_ASSIGN_OR_RETURN(auto edges, ReadFile(prefix + ".edges.csv"));
  return GraphFromCsv(nodes, edges);
}

}  // namespace pghive
