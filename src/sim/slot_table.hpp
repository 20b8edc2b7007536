// A recycled table of in-flight entries, addressed by index.
//
// The RPC layer's calls and the file services' reads, writes and ownership
// transfers each park their state here while a message is on the wire.  An
// index stays valid until its entry is released and is then reused, so a
// table grows only to its peak number of open entries, and a continuation
// that names an entry captures a 4-byte index instead of the entry's
// state — small enough to stay inside an InlinedFn.
//
// Entries move when the table grows: hold an index, not a reference,
// across anything that may open another entry.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace now::sim {

template <typename T>
class SlotTable {
 public:
  std::uint32_t open(T entry) {
    if (free_.empty()) {
      slots_.push_back(std::move(entry));
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t i = free_.back();
    free_.pop_back();
    slots_[i] = std::move(entry);
    return i;
  }

  T& operator[](std::uint32_t i) { return slots_[i]; }
  const T& operator[](std::uint32_t i) const { return slots_[i]; }

  /// Moves entry `i` out and frees its index for reuse.
  T release(std::uint32_t i) {
    T entry = std::move(slots_[i]);
    free_.push_back(i);
    return entry;
  }

  /// Entries currently open.
  std::size_t in_use() const { return slots_.size() - free_.size(); }
  /// Slots the table has grown to (its peak of open entries).
  std::size_t capacity() const { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace now::sim
