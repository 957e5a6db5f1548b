#ifndef GDLOG_UTIL_INTERNER_H_
#define GDLOG_UTIL_INTERNER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

namespace gdlog {

/// Maps strings to dense 32-bit ids and back. Predicate names, symbolic
/// constants and variable names are interned so the hot paths (matching,
/// hashing, grounding) never touch string data.
class Interner {
 public:
  Interner() = default;

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Returns the id of `s`, interning it if new.
  uint32_t Intern(std::string_view s);

  /// Returns the id of `s` or kNotFound if it was never interned.
  static constexpr uint32_t kNotFound = UINT32_MAX;
  uint32_t Lookup(std::string_view s) const;

  /// The string for a previously returned id.
  const std::string& Name(uint32_t id) const;

  size_t size() const { return strings_.size(); }

  /// A deep copy with identical id assignment (copying is otherwise deleted
  /// so shared name tables are never duplicated by accident). The server
  /// uses this to give a database-swapped engine its own mutable name table
  /// whose existing ids agree with the original's.
  std::shared_ptr<Interner> Clone() const;

 private:
  /// Each name is stored once, here; a deque never moves its elements, so
  /// the index can key by views into it and look up without allocating.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, uint32_t> index_;
};

}  // namespace gdlog

#endif  // GDLOG_UTIL_INTERNER_H_
