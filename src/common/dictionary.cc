#include "common/dictionary.h"

#include "common/check.h"

namespace whyq {

SymbolId Dictionary::Intern(std::string_view name) {
  auto it = ids_.find(std::string(name));
  if (it != ids_.end()) return it->second;
  SymbolId id = static_cast<SymbolId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

std::optional<SymbolId> Dictionary::Find(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

const std::string& Dictionary::NameOf(SymbolId id) const {
  WHYQ_CHECK(id < names_.size());
  return names_[id];
}

std::string NumberedName(std::string_view prefix, size_t n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}

}  // namespace whyq
