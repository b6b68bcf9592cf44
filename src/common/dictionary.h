#ifndef WHYQ_COMMON_DICTIONARY_H_
#define WHYQ_COMMON_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace whyq {

/// Interned symbol id. Labels, relation names, and attribute names are stored
/// once and referenced by id everywhere else (graph, queries, operators).
using SymbolId = uint32_t;

inline constexpr SymbolId kInvalidSymbol = UINT32_MAX;

/// "<prefix><n>" (e.g. "L3", "a17"): the names generators intern. Built
/// by appending, since gcc 12 at -O3 flags `"L" + std::to_string(n)` with
/// a false -Wrestrict.
std::string NumberedName(std::string_view prefix, size_t n);

/// A string interning table mapping names (node labels, edge labels,
/// attribute names) to dense SymbolIds. Append-only; ids are stable.
///
/// Thread-safety: immutable after construction, shared across workers —
/// Find()/NameOf()/size() are const with no lazy state and may run
/// concurrently. Intern() mutates and is reserved for the single-threaded
/// build phase (GraphBuilder, generators); never call it on a dictionary
/// already shared with workers.
class Dictionary {
 public:
  Dictionary() = default;

  Dictionary(const Dictionary&) = default;
  Dictionary& operator=(const Dictionary&) = default;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Returns the id of `name`, interning it on first use.
  SymbolId Intern(std::string_view name);

  /// Returns the id of `name` if already interned.
  std::optional<SymbolId> Find(std::string_view name) const;

  /// Returns the name of `id`; `id` must be a valid interned id.
  const std::string& NameOf(SymbolId id) const;

  size_t size() const { return names_.size(); }

 private:
  std::unordered_map<std::string, SymbolId> ids_;
  std::vector<std::string> names_;
};

}  // namespace whyq

#endif  // WHYQ_COMMON_DICTIONARY_H_
