// Symbol interning for the graph core.
//
// Schema-relevant structure lives in a SMALL set of distinct strings and
// string sets: label tokens, property keys, label sets, property-key sets,
// and (label-set, key-set) signatures (Definitions 3.5/3.6 — PG-Schema and
// Wu's property-graph type system make the same observation). The interner
// maps each to a dense uint32 id so the hot paths (feature encoding, LSH
// key computation, pattern counting, type extraction) compare and hash
// single integers instead of re-hashing raw strings, and so each distinct
// set is materialized exactly once.
//
// Layout guarantees the PropertyGraph views rely on:
//   * Interned strings and sets live in std::deques — their addresses are
//     stable under growth, so views handed out earlier never dangle.
//   * Set ids are canonical: one id per distinct content, with the member
//     ids ordered by symbol NAME (lexicographically — exactly the iteration
//     order of the std::set<std::string> they replace), so everything
//     downstream observes the same deterministic order as the pre-interning
//     row storage.
//   * Interning is append-only; ids are assigned in first-seen order.
//
// Thread-safety: interning mutates; concurrent readers of already-interned
// ids are safe (append-only deques), concurrent Intern calls are not. The
// discovery pipeline interns during single-threaded graph construction and
// only reads from its parallel stages.

#ifndef PGHIVE_GRAPH_SYMBOLS_H_
#define PGHIVE_GRAPH_SYMBOLS_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace pghive {

/// Dense id of one interned string (label token or property key).
using SymbolId = uint32_t;
/// Dense id of one canonical interned symbol set.
using SymbolSetId = uint32_t;
using LabelSetId = SymbolSetId;
using KeySetId = SymbolSetId;
/// Dense id of one distinct (label-set, key-set) signature.
using SignatureId = uint32_t;

/// Interns strings to dense uint32 ids (one namespace per table; the graph
/// keeps separate tables for labels and property keys).
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Returns the id of `s`, interning it on first sight.
  SymbolId Intern(std::string_view s);

  /// Id of `s` if already interned, nullptr otherwise. Never interns.
  const SymbolId* Find(std::string_view s) const;

  const std::string& name(SymbolId id) const { return names_[id]; }
  size_t size() const { return names_.size(); }
  /// Approximate heap footprint (strings + index), for the obs gauges.
  size_t ApproxBytes() const;

 private:
  std::deque<std::string> names_;  // deque: stable addresses under growth
  // Keys view into names_ entries (stable), so each string is stored once.
  std::unordered_map<std::string_view, SymbolId> index_;
};

/// Pool of canonical symbol-id sets: each distinct set content is stored
/// once and identified by a dense SymbolSetId; comparisons collapse to an
/// integer compare. Also owns the ONE materialized std::set<std::string>
/// per distinct set (what LabelSetView / PropertyMapView hand out) and the
/// canonical "&"-joined token used by the feature encoding (§4.1).
class SymbolSetPool {
 public:
  /// Id 0 is always the empty set.
  explicit SymbolSetPool(SymbolTable* symbols);
  SymbolSetPool(const SymbolSetPool&) = delete;
  SymbolSetPool& operator=(const SymbolSetPool&) = delete;

  static constexpr SymbolSetId kEmpty = 0;

  /// Interns the canonical form of `strings` (std::set iteration order IS
  /// the canonical lexicographic order).
  SymbolSetId Intern(const std::set<std::string>& strings);

  /// Same, for names already in sorted order (hot call sites avoid building
  /// a temporary std::set). Behavior is undefined if `sorted` is not
  /// strictly ascending.
  SymbolSetId InternSorted(const std::vector<std::string_view>& sorted);

  /// Member ids, ordered by symbol name (lexicographic).
  const std::vector<SymbolId>& ids(SymbolSetId id) const { return ids_[id]; }

  /// The canonical materialized string set — stable address for the
  /// lifetime of the pool.
  const std::set<std::string>& strings(SymbolSetId id) const {
    return strings_[id];
  }

  /// CanonicalLabelToken of the set ("A&B&C"), computed once per distinct
  /// set. Empty string for the empty set.
  const std::string& token(SymbolSetId id) const { return tokens_[id]; }

  size_t set_size(SymbolSetId id) const { return ids_[id].size(); }
  /// Number of distinct sets interned (including the empty set).
  size_t size() const { return ids_.size(); }
  size_t ApproxBytes() const;

 private:
  SymbolTable* symbols_;  // not owned
  std::deque<std::vector<SymbolId>> ids_;
  std::deque<std::set<std::string>> strings_;
  std::deque<std::string> tokens_;
  // Content hash of the id sequence -> candidate set ids (hash collisions
  // resolved by comparing the sequences).
  std::unordered_map<uint64_t, std::vector<SymbolSetId>> index_;
};

/// Pool of distinct (label-set, key-set) signatures. Two u32 components
/// pack into an exact u64 key, so lookups need no collision handling.
/// Structure-of-arrays: the two components live in parallel vectors, so the
/// hot per-signature scans (encoder grouping) that touch only one component
/// stream a dense u32 array instead of striding pairs.
class SignaturePool {
 public:
  SignaturePool() = default;
  SignaturePool(const SignaturePool&) = delete;
  SignaturePool& operator=(const SignaturePool&) = delete;

  SignatureId Intern(SymbolSetId label_set, SymbolSetId key_set);

  SymbolSetId label_set(SignatureId id) const { return label_sets_[id]; }
  SymbolSetId key_set(SignatureId id) const { return key_sets_[id]; }

  size_t size() const { return label_sets_.size(); }
  size_t ApproxBytes() const;

 private:
  std::vector<SymbolSetId> label_sets_;
  std::vector<SymbolSetId> key_sets_;
  std::unordered_map<uint64_t, SignatureId> index_;
};

/// The complete interning context of one PropertyGraph. Shared (via
/// shared_ptr) between a graph and its copies: interning is append-only, so
/// a copy appending new symbols never disturbs the originals, and views
/// into the pools outlive any individual graph copy. Copies sharing a
/// context must not be mutated from different threads concurrently.
struct GraphSymbols {
  SymbolTable labels;
  SymbolTable keys;
  SymbolSetPool label_sets{&labels};
  SymbolSetPool key_sets{&keys};
  SignaturePool node_signatures;
  SignaturePool edge_signatures;

  size_t ApproxBytes() const;
};

}  // namespace pghive

#endif  // PGHIVE_GRAPH_SYMBOLS_H_
