#include "store/snapshot.h"

#include <functional>
#include <utility>

#include "common/binary_io.h"
#include "common/csv.h"
#include "runtime/parallel.h"
#include "store/codec.h"
#include "store/fs_util.h"

namespace pghive {
namespace store {

namespace {

constexpr size_t kHeaderSize = 4 + 4 + 4 + 4;  // magic, version, count, crc
constexpr size_t kSectionHeaderSize = 4 + 8 + 4;  // id, size, crc

std::string EncodeMeta(const StoreSnapshot& s) {
  BinaryWriter w;
  w.WriteU64(s.applied_batches);
  w.WriteU64(s.options_fingerprint);
  w.WriteString(s.options_summary);
  return std::move(w).Take();
}

Status DecodeMeta(const std::string& payload, StoreSnapshot* s) {
  BinaryReader r(payload);
  PGHIVE_ASSIGN_OR_RETURN(s->applied_batches, r.ReadU64());
  PGHIVE_ASSIGN_OR_RETURN(s->options_fingerprint, r.ReadU64());
  PGHIVE_ASSIGN_OR_RETURN(s->options_summary, r.ReadString());
  // Files written while signature-sharded feeds existed append a u32 shard
  // count and a u64 layout fingerprint. Neither affects output: both are
  // read (a short tail is still a parse error) and dropped.
  if (r.remaining() > 0) {
    PGHIVE_RETURN_NOT_OK(
        r.ReadBytes(sizeof(uint32_t) + sizeof(uint64_t)).status());
  }
  return Status::OK();
}

std::string EncodeAliases(const StoreSnapshot& s) {
  BinaryWriter w;
  w.WriteU32(static_cast<uint32_t>(s.aliases.size()));
  for (const auto& [alias, canonical] : s.aliases) {
    w.WriteString(alias);
    w.WriteString(canonical);
  }
  return std::move(w).Take();
}

Status DecodeAliases(const std::string& payload, StoreSnapshot* s) {
  BinaryReader r(payload);
  PGHIVE_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  for (uint32_t i = 0; i < n; ++i) {
    PGHIVE_ASSIGN_OR_RETURN(std::string alias, r.ReadString());
    PGHIVE_ASSIGN_OR_RETURN(std::string canonical, r.ReadString());
    s->aliases.emplace_back(std::move(alias), std::move(canonical));
  }
  return Status::OK();
}

std::string EncodeLshDiag(const StoreSnapshot& s) {
  BinaryWriter w;
  EncodeAdaptiveParams(s.node_lsh, &w);
  EncodeAdaptiveParams(s.edge_lsh, &w);
  w.WriteU64(s.node_clusters);
  w.WriteU64(s.edge_clusters);
  return std::move(w).Take();
}

Status DecodeLshDiag(const std::string& payload, StoreSnapshot* s) {
  BinaryReader r(payload);
  PGHIVE_ASSIGN_OR_RETURN(s->node_lsh, DecodeAdaptiveParams(&r));
  PGHIVE_ASSIGN_OR_RETURN(s->edge_lsh, DecodeAdaptiveParams(&r));
  PGHIVE_ASSIGN_OR_RETURN(s->node_clusters, r.ReadU64());
  PGHIVE_ASSIGN_OR_RETURN(s->edge_clusters, r.ReadU64());
  return Status::OK();
}

template <typename EncodeFn>
std::string EncodeWith(EncodeFn fn) {
  BinaryWriter w;
  fn(&w);
  return std::move(w).Take();
}

}  // namespace

const char* SnapshotSectionName(SnapshotSection s) {
  switch (s) {
    case SnapshotSection::kMeta:
      return "meta";
    case SnapshotSection::kGraph:
      return "graph";
    case SnapshotSection::kSchema:
      return "schema";
    case SnapshotSection::kTimings:
      return "timings";
    case SnapshotSection::kAliases:
      return "aliases";
    case SnapshotSection::kLshDiag:
      return "lsh-diag";
    case SnapshotSection::kRetiredStats:
      return "value-stats";
    case SnapshotSection::kSymbols:
      return "symbols";
    case SnapshotSection::kGraphColumnar:
      return "graph-columnar";
    case SnapshotSection::kAggregates:
      return "aggregates";
    case SnapshotSection::kDriftHistory:
      return "drift-history";
  }
  return "unknown";
}

std::string EncodeSnapshot(const StoreSnapshot& snapshot, ThreadPool* pool) {
  struct SectionSpec {
    SnapshotSection id;
    std::function<std::string()> encode;
  };
  const StoreSnapshot& s = snapshot;
  std::vector<SectionSpec> specs = {
      {SnapshotSection::kMeta, [&s] { return EncodeMeta(s); }},
      // v2 graph layout: the symbol context once, then columnar elements.
      {SnapshotSection::kSymbols,
       [&s] {
         return EncodeWith(
             [&s](BinaryWriter* w) { EncodeSymbols(s.graph.symbols(), w); });
       }},
      {SnapshotSection::kGraphColumnar,
       [&s] {
         return EncodeWith(
             [&s](BinaryWriter* w) { EncodeGraphColumnar(s.graph, w); });
       }},
      {SnapshotSection::kSchema,
       [&s] { return EncodeWith([&s](BinaryWriter* w) { EncodeSchema(s.schema, w); }); }},
      {SnapshotSection::kTimings,
       [&s] {
         return EncodeWith(
             [&s](BinaryWriter* w) { EncodeDoubleVector(s.batch_seconds, w); });
       }},
      {SnapshotSection::kAliases, [&s] { return EncodeAliases(s); }},
      {SnapshotSection::kLshDiag, [&s] { return EncodeLshDiag(s); }},
  };
  // v3: the aggregates section is optional — written only when the engine
  // had usable aggregates, so a snapshot without them stays byte-identical
  // to one that never carried any.
  if (s.has_aggregates) {
    specs.push_back({SnapshotSection::kAggregates, [&s] {
                       return EncodeWith([&s](BinaryWriter* w) {
                         EncodeAggregates(s.aggregates, w);
                       });
                     }});
  }
  // v4: the drift-history section is opaque tracker bytes, present only for
  // drift-tracking stores.
  if (s.has_drift) {
    specs.push_back(
        {SnapshotSection::kDriftHistory, [&s] { return s.drift_history; }});
  }

  // Per-section payload + CRC in parallel; assembly below is sequential, so
  // the emitted bytes are identical at any thread count.
  struct EncodedSection {
    std::string payload;
    uint32_t crc = 0;
  };
  std::vector<EncodedSection> sections =
      ParallelMap(pool, specs.size(), [&specs](size_t i) {
        EncodedSection enc;
        enc.payload = specs[i].encode();
        enc.crc = Crc32(enc.payload);
        return enc;
      }, /*grain=*/1);

  BinaryWriter out;
  out.WriteBytes(std::string_view(kSnapshotMagic, 4));
  out.WriteU32(kSnapshotFormatVersion);
  out.WriteU32(static_cast<uint32_t>(sections.size()));
  out.WriteU32(Crc32(out.buffer()));
  for (size_t i = 0; i < sections.size(); ++i) {
    out.WriteU32(static_cast<uint32_t>(specs[i].id));
    out.WriteU64(sections[i].payload.size());
    out.WriteU32(sections[i].crc);
    out.WriteBytes(sections[i].payload);
  }
  return std::move(out).Take();
}

namespace {

struct RawSection {
  uint32_t id = 0;
  uint32_t crc = 0;
  std::string_view payload;
};

/// Parses the header + section table without CRC-validating payloads.
Result<std::vector<RawSection>> ParseSections(const std::string& bytes,
                                              uint32_t* format_version) {
  BinaryReader r(bytes);
  PGHIVE_ASSIGN_OR_RETURN(std::string_view magic, r.ReadBytes(4));
  if (magic != std::string_view(kSnapshotMagic, 4)) {
    return Status::ParseError("not a PG-HIVE snapshot (bad magic)");
  }
  PGHIVE_ASSIGN_OR_RETURN(*format_version, r.ReadU32());
  if (*format_version == 0 || *format_version > kSnapshotFormatVersion) {
    return Status::ParseError("unsupported snapshot format version " +
                              std::to_string(*format_version));
  }
  PGHIVE_ASSIGN_OR_RETURN(uint32_t section_count, r.ReadU32());
  PGHIVE_ASSIGN_OR_RETURN(uint32_t header_crc, r.ReadU32());
  if (header_crc != Crc32(std::string_view(bytes).substr(0, 12))) {
    return Status::IoError("snapshot header CRC mismatch");
  }
  if (section_count >
      (bytes.size() - kHeaderSize) / kSectionHeaderSize + 1) {
    return Status::ParseError("snapshot section count exceeds file size");
  }
  std::vector<RawSection> sections;
  sections.reserve(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    RawSection sec;
    PGHIVE_ASSIGN_OR_RETURN(sec.id, r.ReadU32());
    PGHIVE_ASSIGN_OR_RETURN(uint64_t size, r.ReadU64());
    PGHIVE_ASSIGN_OR_RETURN(sec.crc, r.ReadU32());
    if (size > r.remaining()) {
      return Status::ParseError("snapshot section " + std::to_string(sec.id) +
                                " size exceeds file size");
    }
    PGHIVE_ASSIGN_OR_RETURN(sec.payload, r.ReadBytes(size));
    sections.push_back(sec);
  }
  if (!r.AtEnd()) {
    return Status::ParseError("trailing bytes after snapshot sections");
  }
  return sections;
}

/// ParseError naming the first id in `ids` (a count map's keys, or an
/// instance list) that is not below `limit`.
template <typename Ids, typename GetId>
Status CheckIdsBelow(const Ids& ids, GetId get_id, uint64_t limit,
                     const std::string& what) {
  for (const auto& entry : ids) {
    const uint64_t id = get_id(entry);
    if (id >= limit) {
      return Status::ParseError(what + " id " + std::to_string(id) +
                                " is out of range (" + std::to_string(limit) +
                                " in the graph section)");
    }
  }
  return Status::OK();
}

/// The schema and aggregates sections each decode on their own, but both
/// index into the graph section, and recovery and retraction dereference
/// those ids unchecked. Run once per decode:
/// O(instances + aggregate entries).
Status CheckCrossSectionIds(const StoreSnapshot& s) {
  auto id = [](uint64_t v) { return v; };
  auto key = [](const auto& kv) { return uint64_t{kv.first}; };
  for (const auto& t : s.schema.node_types) {
    PGHIVE_RETURN_NOT_OK(CheckIdsBelow(t.instances, id, s.graph.num_nodes(),
                                       "node type '" + t.name + "' node"));
  }
  for (const auto& t : s.schema.edge_types) {
    PGHIVE_RETURN_NOT_OK(CheckIdsBelow(t.instances, id, s.graph.num_edges(),
                                       "edge type '" + t.name + "' edge"));
  }
  const GraphSymbols& sym = s.graph.symbols();
  for (const std::vector<TypeAggregate>* aggs :
       {&s.aggregates.node_types, &s.aggregates.edge_types}) {
    for (const TypeAggregate& a : *aggs) {
      PGHIVE_RETURN_NOT_OK(CheckIdsBelow(a.key_set_counts, key,
                                         sym.key_sets.size(),
                                         "aggregate key-set"));
      PGHIVE_RETURN_NOT_OK(CheckIdsBelow(a.label_set_counts, key,
                                         sym.label_sets.size(),
                                         "aggregate label-set"));
      PGHIVE_RETURN_NOT_OK(
          CheckIdsBelow(a.keys, key, sym.keys.size(), "aggregate key"));
      PGHIVE_RETURN_NOT_OK(CheckIdsBelow(a.src_set_counts, key,
                                         sym.label_sets.size(),
                                         "aggregate source label-set"));
      PGHIVE_RETURN_NOT_OK(CheckIdsBelow(a.tgt_set_counts, key,
                                         sym.label_sets.size(),
                                         "aggregate target label-set"));
    }
  }
  return Status::OK();
}

}  // namespace

Result<StoreSnapshot> DecodeSnapshot(const std::string& bytes) {
  uint32_t version = 0;
  PGHIVE_ASSIGN_OR_RETURN(std::vector<RawSection> sections,
                          ParseSections(bytes, &version));
  StoreSnapshot snapshot;
  bool have_meta = false, have_graph = false, have_schema = false;
  // v2 graph sections: decoded together after the loop (the columnar
  // section needs the symbol context, whatever the file order).
  std::string symbols_payload, columnar_payload;
  bool have_symbols = false, have_columnar = false;
  for (const RawSection& sec : sections) {
    if (Crc32(sec.payload) != sec.crc) {
      return Status::IoError(
          std::string("snapshot section '") +
          SnapshotSectionName(static_cast<SnapshotSection>(sec.id)) +
          "' CRC mismatch — refusing to load corrupt state");
    }
    const std::string payload(sec.payload);
    switch (static_cast<SnapshotSection>(sec.id)) {
      case SnapshotSection::kMeta:
        PGHIVE_RETURN_NOT_OK(DecodeMeta(payload, &snapshot));
        have_meta = true;
        break;
      case SnapshotSection::kGraph: {
        BinaryReader r(payload);
        PGHIVE_ASSIGN_OR_RETURN(snapshot.graph, DecodeGraph(&r));
        have_graph = true;
        break;
      }
      case SnapshotSection::kSchema: {
        BinaryReader r(payload);
        PGHIVE_ASSIGN_OR_RETURN(snapshot.schema, DecodeSchema(&r));
        have_schema = true;
        break;
      }
      case SnapshotSection::kTimings: {
        BinaryReader r(payload);
        PGHIVE_ASSIGN_OR_RETURN(snapshot.batch_seconds, DecodeDoubleVector(&r));
        break;
      }
      case SnapshotSection::kAliases:
        PGHIVE_RETURN_NOT_OK(DecodeAliases(payload, &snapshot));
        break;
      case SnapshotSection::kLshDiag:
        PGHIVE_RETURN_NOT_OK(DecodeLshDiag(payload, &snapshot));
        break;
      case SnapshotSection::kSymbols:
        symbols_payload = payload;
        have_symbols = true;
        break;
      case SnapshotSection::kGraphColumnar:
        columnar_payload = payload;
        have_columnar = true;
        break;
      case SnapshotSection::kAggregates: {
        // The v3 aggregates layout predates retraction and is not decodable
        // here; discard it so recovery's first fold rebuilds the aggregates
        // from the schema's instance lists (slower, never wrong).
        if (version < 4) break;
        BinaryReader r(payload);
        PGHIVE_ASSIGN_OR_RETURN(snapshot.aggregates,
                                DecodeAggregates(&r, version));
        if (!r.AtEnd()) {
          return Status::ParseError("trailing bytes after aggregates section");
        }
        snapshot.has_aggregates = true;
        break;
      }
      case SnapshotSection::kDriftHistory:
        snapshot.drift_history = payload;
        snapshot.has_drift = true;
        break;
      default:
        // An unknown (guarded, length-prefixed) section from a newer writer
        // is skipped, and so is the value-stats section of v1-v4 files.
        break;
    }
  }
  if (have_columnar != have_symbols) {
    return Status::ParseError(
        "snapshot has only one of the symbols/graph-columnar section pair");
  }
  if (have_columnar && !have_graph) {
    std::shared_ptr<GraphSymbols> symbols;
    {
      BinaryReader r(symbols_payload);
      PGHIVE_ASSIGN_OR_RETURN(symbols, DecodeSymbols(&r));
      if (!r.AtEnd()) {
        return Status::ParseError("trailing bytes after symbols section");
      }
    }
    BinaryReader r(columnar_payload);
    PGHIVE_ASSIGN_OR_RETURN(snapshot.graph,
                            DecodeGraphColumnar(&r, std::move(symbols)));
    if (!r.AtEnd()) {
      return Status::ParseError(
          "trailing bytes after graph-columnar section");
    }
    have_graph = true;
  }
  if (!have_meta || !have_graph || !have_schema) {
    return Status::ParseError(
        "snapshot is missing a required section (meta/graph/schema)");
  }
  PGHIVE_RETURN_NOT_OK(CheckCrossSectionIds(snapshot));
  return snapshot;
}

Status WriteSnapshotFile(const std::string& path, const std::string& bytes) {
  return AtomicWriteFile(path, bytes);
}

Result<StoreSnapshot> ReadSnapshotFile(const std::string& path) {
  PGHIVE_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  auto snapshot = DecodeSnapshot(bytes);
  if (!snapshot.ok()) {
    return Status(snapshot.status().code(),
                  path + ": " + snapshot.status().message());
  }
  return snapshot;
}

Result<SnapshotInfo> InspectSnapshot(const std::string& bytes) {
  SnapshotInfo info;
  std::vector<RawSection> sections;
  {
    auto parsed = ParseSections(bytes, &info.format_version);
    if (!parsed.ok()) return parsed.status();
    sections = std::move(parsed).value();
  }
  info.header_ok = true;
  for (const RawSection& sec : sections) {
    SnapshotSectionInfo si;
    si.id = sec.id;
    si.name = SnapshotSectionName(static_cast<SnapshotSection>(sec.id));
    si.size = sec.payload.size();
    si.crc_ok = Crc32(sec.payload) == sec.crc;
    info.sections.push_back(std::move(si));
  }
  return info;
}

}  // namespace store
}  // namespace pghive
