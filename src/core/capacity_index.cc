#include "core/capacity_index.h"

#include <algorithm>
#include <limits>

namespace willow::core {

namespace {
using Key = std::pair<double, std::uint32_t>;
constexpr double kEps = binpack::kCapacityEps;
}  // namespace

void CapacityIndex::reset(std::size_t slots) {
  bulk_.clear();
  side_.clear();
  cap_of_.assign(slots, -1.0);
  in_bulk_.assign(slots, 0);
  ban_depth_.assign(slots, kNoBan);
}

void CapacityIndex::load() {
  std::sort(bulk_.begin(), bulk_.end());
  for (const Key& e : bulk_) {
    cap_of_[e.second] = e.first;
    in_bulk_[e.second] = 1;
  }
}

int CapacityIndex::update(std::uint32_t slot, double capacity) {
  int mutations = 0;
  if (cap_of_[slot] >= 0.0) {
    if (in_bulk_[slot] != 0) {
      in_bulk_[slot] = 0;  // retire the bulk entry in place
    } else {
      side_.erase(Key{cap_of_[slot], slot});
    }
    cap_of_[slot] = -1.0;
    ++mutations;
  }
  if (capacity > kEps) {
    side_.insert(Key{capacity, slot});
    cap_of_[slot] = capacity;
    ++mutations;
  }
  return mutations;
}

template <class Visit>
void CapacityIndex::scan_up(Key from, Visit&& visit) const {
  auto b = std::lower_bound(bulk_.begin(), bulk_.end(), from);
  auto s = side_.lower_bound(from);
  for (;;) {
    while (b != bulk_.end() && in_bulk_[b->second] == 0) ++b;
    const bool have_b = b != bulk_.end();
    const bool have_s = s != side_.end();
    if (!have_b && !have_s) return;
    const Key& k = have_b && (!have_s || *b < *s) ? *b++ : *s++;
    if (visit(k)) return;
  }
}

bool CapacityIndex::is_touched(std::uint32_t slot) const {
  for (const auto& t : touched_) {
    if (t.first == slot) return true;
  }
  return false;
}

bool CapacityIndex::pack(const std::vector<binpack::Item>& items,
                         const Scope& scope, bool stop_at_unplaced, Plan& plan,
                         std::vector<std::size_t>& unplaced) {
  plan.clear();
  unplaced.clear();
  // Step 1: cmax is the scope's largest bin — the larger of the last bulk
  // and side entries it serves.
  double cmax = -1.0;
  for (auto it = bulk_.rbegin(); it != bulk_.rend(); ++it) {
    if (in_bulk_[it->second] != 0 && serves(scope, it->second)) {
      cmax = it->first;
      break;
    }
  }
  for (auto it = side_.rbegin(); it != side_.rend() && it->first > cmax;
       ++it) {
    if (serves(scope, it->second)) {
      cmax = it->first;
      break;
    }
  }
  if (cmax < 0.0) {
    // No bins: pack() reports every item unplaced, in input order.
    if (stop_at_unplaced) return items.empty();
    for (std::size_t i = 0; i < items.size(); ++i) unplaced.push_back(i);
    return items.empty();
  }

  // Steps 2+3: the virtual groups depend only on the items and cmax.
  binpack::VirtualGroups vg = binpack::ffdlr_virtual_groups(items, cmax);
  unplaced = std::move(vg.oversized);
  if (stop_at_unplaced && !unplaced.empty()) return false;

  // Step 4: each group lands in the first unused entry with capacity + eps
  // >= content, the bin pack() picks because the index order is its real-bin
  // order.  The scan starts where that predicate can first hold (the two
  // boundary forms differ far below eps at watt magnitudes) and advances
  // with pack()'s exact predicate.
  touched_.clear();
  leftovers_.clear();
  for (const auto& g : vg.groups) {
    std::uint32_t chosen = kNoSlot;
    double chosen_cap = 0.0;
    scan_up(Key{g.content - 2 * kEps, 0}, [&](const Key& e) {
      if (!binpack::fits(e.first, g.content)) return false;
      if (!serves(scope, e.second) || is_touched(e.second)) return false;
      chosen = e.second;
      chosen_cap = e.first;
      return true;
    });
    if (chosen == kNoSlot) {
      // No single unused bin holds the whole group; its items retry singly
      // below, exactly as pack() spills them.
      leftovers_.insert(leftovers_.end(), g.items.begin(), g.items.end());
      continue;
    }
    double residual = chosen_cap;
    for (const std::size_t item : g.items) {
      plan.emplace_back(item, chosen);
      // Sequential subtraction, like pack()'s placement — the running
      // residual must match its bits, and float subtraction is not
      // associative.
      residual -= items[item].size;
    }
    touched_.emplace_back(chosen, residual);
  }
  if (leftovers_.empty()) return unplaced.empty();

  // pack()'s final pass: leftovers re-sorted globally (size descending, input
  // index ascending), each best-fit into the minimal feasible slack; ties go
  // to the lowest bin input index, i.e. the lowest slot.
  std::stable_sort(leftovers_.begin(), leftovers_.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (items[a].size != items[b].size) {
                       return items[a].size > items[b].size;
                     }
                     return a < b;
                   });
  for (const std::size_t item : leftovers_) {
    const double size = items[item].size;
    std::uint32_t chosen = kNoSlot;
    double best = std::numeric_limits<double>::infinity();
    // Best untouched bin: capacity order makes slack monotone, so the first
    // feasible entry minimizes it.  Entries whose slack rounds to the same
    // double form a contiguous run (fl(x - size) is monotone in x); scan the
    // run for the lowest slot, because pack()'s input-order scan keeps the
    // first minimal bin.
    scan_up(Key{size - 2 * kEps, 0}, [&](const Key& e) {
      const double slack = e.first - size;  // pack()'s exact slack form
      if (!(slack >= -kEps)) return false;
      if (!serves(scope, e.second) || is_touched(e.second)) return false;
      if (chosen == kNoSlot) {
        best = slack;
        chosen = e.second;
      } else if (slack == best) {
        chosen = std::min(chosen, e.second);
      } else {
        return true;  // slack only grows from here
      }
      return false;
    });
    // Touched bins compete with their shrunken residuals under the same
    // (slack, slot) minimization.
    std::size_t chosen_touched = touched_.size();
    for (std::size_t ti = 0; ti < touched_.size(); ++ti) {
      const double slack = touched_[ti].second - size;
      if (!(slack >= -kEps)) continue;
      if (slack < best || (slack == best && touched_[ti].first < chosen)) {
        best = slack;
        chosen = touched_[ti].first;
        chosen_touched = ti;
      }
    }
    if (chosen == kNoSlot) {
      if (stop_at_unplaced) return false;
      unplaced.push_back(item);
      continue;
    }
    plan.emplace_back(item, chosen);
    if (chosen_touched < touched_.size()) {
      touched_[chosen_touched].second -= size;
    } else {
      // First subtraction from an untouched bin is capacity - size, which is
      // exactly the slack already computed.
      touched_.emplace_back(chosen, best);
    }
  }
  return unplaced.empty();
}

}  // namespace willow::core
