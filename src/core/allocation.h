// Proportional budget allocation with hard constraints — Section IV-D.
//
// "The available power budget of any level l+1 is allocated among the nodes
//  in level l proportional to their demands", subject to each child's hard
//  constraint (thermal limit + circuit rating).  When the budget exceeds the
//  total demand, the paper's three-step rule applies: (1) under-provisioned
//  nodes get just enough to satisfy demand, (2) surplus may be harnessed by
//  bringing in additional workload (the controller's revival/wake logic),
//  (3) remaining surplus is spread over children proportional to demand.
//
// allocate_proportional() implements steps (1) and (3) as a capped
// water-filling; whatever cannot be placed under the caps is returned as
// `unallocated` (the quantity step (2) may harness).
#pragma once

#include <cstdint>
#include <vector>

#include "util/units.h"

namespace willow::core {

using util::Watts;

struct AllocationResult {
  std::vector<Watts> budgets;  ///< one per input entry
  Watts unallocated{0.0};      ///< budget no child could absorb (all capped)
};

/// Allocate `total` among entries with the given demands and hard caps.
///
/// Phase 1 (deficit regime): each entry receives a share proportional to its
/// demand, iteratively clamped at min(demand, cap) — nodes whose share
/// exceeds what they can take are frozen and the leftover re-divided among
/// the rest, so no watt idles while an unsatisfied demand remains.
/// Phase 2 (surplus regime): once every demand is met, the remainder is
/// spread proportional to demand over entries still below cap (entries with
/// zero demand share the remainder proportional to cap headroom instead,
/// so a fully idle level still banks its surplus downstream; if any entry's
/// cap is infinite, those entries take that remainder in equal shares).
///
/// Invariants (tested): sum(budgets) + unallocated == total (within 1e-9);
/// budgets[i] <= caps[i]; budgets[i] >= 0.
AllocationResult allocate_proportional(Watts total,
                                       const std::vector<Watts>& demands,
                                       const std::vector<Watts>& caps);

/// Working buffers of allocate_proportional, kept by callers that divide many
/// nodes per pass (the controller's supply division) so a division allocates
/// nothing once the buffers have grown to the widest node.
struct AllocationScratch {
  std::vector<double> demand, cap, value, limit;
  std::vector<std::uint32_t> open;
};

/// allocate_proportional into `out` (budgets resized to the input), using
/// `scratch` for every intermediate.  Same arithmetic, same bits.
void allocate_proportional(Watts total, const std::vector<Watts>& demands,
                           const std::vector<Watts>& caps,
                           AllocationScratch& scratch, AllocationResult& out);

}  // namespace willow::core
