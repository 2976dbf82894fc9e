// RefinePlanner: turns query demand into a per-rank RC sweep order.
//
// The RC kernels drain their worklists in ascending LocalId order by
// default; plan_rank_order() produces an alternative visiting order that
// puts rows users are asking about (and their surrounding neighborhoods,
// via a decayed multi-hop smear) first.
// Refinement *coverage* is untouched — a plan is a permutation of all local
// rows, every marked row still drains, and propagation still runs to the
// same fixpoint — only the order in which rows are swept changes, which is
// what makes hot rows reach exactness earlier under a per-step budget.
//
// Ordering contract (the bit-identity discipline of PRs 4-6): when the
// policy is Uniform, or no positive heat/focus signal exists, the planner
// returns an *empty* plan and the kernels take their historical ascending
// sweep — byte-identical schedule, ops, and dirty sets to the
// pre-refine engine. Plans themselves are deterministic: rows sort by
// (focus, heat, LocalId), so equal-signal rows keep ascending order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/subgraph.hpp"

namespace aa {

/// How the engine orders per-rank RC work (EngineConfig::refine_policy).
enum class RefinePolicy : std::uint8_t {
    /// Historical ascending-LocalId sweeps; bit-identical to the pre-refine
    /// engine by contract.
    Uniform,
    /// Rows hot in the DemandTracker (plus their smeared neighborhoods)
    /// sweep first.
    QueryHeat,
    /// Like QueryHeat, but the serve layer's uncertain top-k candidates are
    /// injected as focus rows ahead of plain heat.
    TopKPruned,
};

/// Canonical lower-case name ("uniform" / "heat" / "topk").
std::string_view refine_policy_name(RefinePolicy policy);

/// Parse a canonical name; returns false on unknown values.
bool parse_refine_policy(std::string_view name, RefinePolicy& out);

/// Demand-priority sweep order for one rank, or empty when no positive
/// signal exists (callers must then use the historical ascending order).
///
/// `heat` is the global per-vertex heat snapshot (may be empty), and
/// `focus` an optional 0/1 mask of top-k focus vertices (may be empty).
/// A row's priority folds in a decayed multi-hop smear of its neighborhood —
/// a hot row's missing columns arrive along drain chains several hops away,
/// so rows between the wave and a hot destination inherit a proximity
/// gradient (halved per hop, carried across rank boundaries by the global
/// heat snapshot).
std::vector<LocalId> plan_rank_order(const LocalSubgraph& sg,
                                     std::span<const double> heat,
                                     std::span<const std::uint8_t> focus);

}  // namespace aa
