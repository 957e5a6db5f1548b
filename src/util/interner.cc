#include "util/interner.h"

#include <cassert>

namespace gdlog {

uint32_t Interner::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(strings_.back(), id);
  return id;
}

uint32_t Interner::Lookup(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return kNotFound;
  return it->second;
}

std::shared_ptr<Interner> Interner::Clone() const {
  auto copy = std::make_shared<Interner>();
  copy->strings_ = strings_;
  // The index must view the copy's names, not this table's.
  copy->index_.reserve(strings_.size());
  for (uint32_t id = 0; id < copy->strings_.size(); ++id) {
    copy->index_.emplace(copy->strings_[id], id);
  }
  return copy;
}

const std::string& Interner::Name(uint32_t id) const {
  assert(id < strings_.size());
  return strings_[id];
}

}  // namespace gdlog
