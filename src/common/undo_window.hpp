// Per-block undo window (DESIGN.md §16): the open record plus the newest
// kUndoRecords sealed block records, each labelled with its height.
// chain::WorldState and vm::ContractStore each keep one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

namespace mc {

/// Reorg depth a node undoes in place instead of replaying from genesis.
inline constexpr std::size_t kUndoDepth = 8;

/// Sealed records kept: one beyond kUndoDepth keeps a depth-kUndoDepth
/// reorg's base in reach while its kUndoDepth + 1 branch blocks seal.
inline constexpr std::size_t kUndoRecords = kUndoDepth + 1;

template <class Record>
class UndoWindow {
 public:
  /// The open record, or null when none is open.
  [[nodiscard]] Record* recording() { return open_ ? &*open_ : nullptr; }

  /// The open record, opened empty when none is.
  Record& open() { return open_ ? *open_ : open_.emplace(); }

  /// Seal the open record (empty if none) under `height`, dropping the
  /// oldest sealed record past kUndoRecords.
  void seal(std::uint64_t height) {
    sealed_.emplace_back(height, std::move(open()));
    open_.reset();
    if (sealed_.size() > kUndoRecords) {
      floor_ = sealed_.front().first;
      sealed_.pop_front();
    }
  }

  /// True while no record newer than the seal `height` has been dropped.
  [[nodiscard]] bool reaches(std::uint64_t height) const {
    return height >= floor_;
  }

  /// Hand the open record, then the sealed records labelled above
  /// `height`, newest first, to `undo` and drop them. Out of reach it
  /// undoes nothing, empties the window and returns false.
  template <class Undo>
  bool rollback_to(std::uint64_t height, Undo&& undo) {
    if (!reaches(height)) {
      *this = UndoWindow{};
      return false;
    }
    if (open_) undo(*open_);
    open_.reset();
    for (; !sealed_.empty() && sealed_.back().first > height;
         sealed_.pop_back())
      undo(sealed_.back().second);
    return true;
  }

  [[nodiscard]] std::size_t retained() const { return sealed_.size(); }

 private:
  std::optional<Record> open_;
  std::deque<std::pair<std::uint64_t, Record>> sealed_;  ///< (label, record)
  std::uint64_t floor_ = 0;  ///< label of the newest dropped record
};

}  // namespace mc
