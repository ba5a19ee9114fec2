// CapacityIndex: the controller's one (capacity, slot)-ordered index over
// migration targets, shared by demand escalation and consolidation.
//
// Every active server whose target capacity exceeds binpack::kCapacityEps has
// one entry keyed (capacity, arena slot).  The bulk load is a sorted vector
// (one sort per phase, no per-entry allocation); a point update retires the
// slot's vector entry and files the new key in a small ordered side set, and
// queries walk both in merged key order.  Slots are creation order, which is
// the order the controller enumerates a scope's servers when it materializes
// packing bins, so the index order *is* FFDLR's real-bin order (capacity
// ascending, input index ascending) for every scope at once.  A query names
// its scope as a slot span plus the scope's tree depth: a server is eligible
// under the unidirectional rule at scope p exactly when its deepest banned
// ancestor (recorded per slot by the caller) is p itself, above p, or absent.
//
// pack() replays pack(kFfdlr) on the index without building the bin vector:
// cmax, the virtual-group first-fit, the smallest-unused-bin repack and the
// best-fit of leftovers over untouched and touched bins, with the same float
// forms and the same tie-breaks, so its plan and unplaced list equal pack()'s
// on the materialized bins bit for bit (the randomized equivalence test and
// the controller's shadow_diff mode both check this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "binpack/pack.h"

namespace willow::core {

class CapacityIndex {
 public:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Ban depth of a server no banned ancestor constrains.
  static constexpr int kNoBan = -1;

  /// A query's bins: indexed slots in [first, first + count) eligible at
  /// `depth`, except `exclude`.
  struct Scope {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    int depth = 0;
    std::uint32_t exclude = kNoSlot;
  };

  /// A placement plan: (item index, slot) in pack()'s emission order.
  using Plan = std::vector<std::pair<std::size_t, std::uint32_t>>;

  /// Empty the index for `slots` servers: nothing indexed, no bans.
  void reset(std::size_t slots);
  /// Record the depth of `slot`'s deepest banned ancestor (kNoBan if none).
  void set_ban_depth(std::uint32_t slot, int depth) { ban_depth_[slot] = depth; }
  /// Queue `slot` at `capacity` for the bulk load (after reset(), at most
  /// once per slot; capacities at or below kCapacityEps are skipped).
  void add(std::uint32_t slot, double capacity) {
    if (capacity > binpack::kCapacityEps) bulk_.emplace_back(capacity, slot);
  }
  /// Sort the queued entries into the index.
  void load();
  /// Re-key `slot` at `capacity` (at or below kCapacityEps: drop it).
  /// Returns the number of set mutations (erase + insert, 0..2).
  int update(std::uint32_t slot, double capacity);

  /// The indexed capacity of `slot`, or a negative value when not indexed.
  [[nodiscard]] double capacity(std::uint32_t slot) const {
    return cap_of_[slot];
  }
  [[nodiscard]] bool eligible(std::uint32_t slot, int depth) const {
    return ban_depth_[slot] <= depth;
  }
  /// Whether `slot` is one of `scope`'s bins.
  [[nodiscard]] bool serves(const Scope& scope, std::uint32_t slot) const {
    return slot - scope.first < scope.count && slot != scope.exclude &&
           cap_of_[slot] >= 0.0 && eligible(slot, scope.depth);
  }

  /// pack(items, scope's bins, kFfdlr), replayed on the index.  Fills `plan`
  /// and `unplaced` exactly as pack()'s assignments and unplaced list and
  /// returns whether everything placed.  With `stop_at_unplaced` the replay
  /// returns false at the first unplaceable item, leaving both outputs
  /// partial (a caller that only needs the all-placed verdict).
  bool pack(const std::vector<binpack::Item>& items, const Scope& scope,
            bool stop_at_unplaced, Plan& plan,
            std::vector<std::size_t>& unplaced);

 private:
  using Key = std::pair<double, std::uint32_t>;

  [[nodiscard]] bool is_touched(std::uint32_t slot) const;
  /// Visit the live entries with key >= `from` in ascending key order until
  /// `visit` returns true.
  template <class Visit>
  void scan_up(Key from, Visit&& visit) const;

  std::vector<Key> bulk_;  ///< sorted at load; retired entries stay put
  std::set<Key> side_;     ///< keys filed by point updates
  std::vector<double> cap_of_;    ///< by slot; < 0 = not indexed
  std::vector<char> in_bulk_;     ///< by slot: live key is in bulk_
  std::vector<int> ban_depth_;    ///< by slot
  /// Replay scratch: bins the plan touched as (slot, residual) in touch
  /// order, and the items that fell out of whole-group placement.  Both are
  /// bounded by the item count, so linear scans beat any indexed structure.
  std::vector<std::pair<std::uint32_t, double>> touched_;
  std::vector<std::size_t> leftovers_;
};

}  // namespace willow::core
