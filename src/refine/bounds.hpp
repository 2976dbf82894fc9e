// BoundsOracle: closeness intervals from partial (anytime) distance rows.
//
// Mid-refinement every stored d̂(v, t) is an *upper bound* on the true
// distance (IA seeds rows with exact local SSSP, every later relax only
// lowers entries, and the deletion cascade resets anything it cannot
// certify back to +inf). The cheap lower-bound side-channel is the RC
// *wavefront* argument: after k completed RC steps since the last base
// case, any shortest path crossing at most k cut edges has been fully
// folded into the rows. A cut edge costs at least w_min, so a path of
// length d crosses at most d / w_min cut edges — which turns the upper
// bound itself into a settledness certificate:
//
//     d̂(v, t) <= k * w_min   =>   d̂(v, t) = d(v, t)  (exact)
//
// (k = the engine's wavefront counter, reset to 0 by every structural
// update path after its local re-settlement, -1 before the engine is
// initialized, when only the diagonal is trusted; a checkpoint restore
// keeps the saved k; w_min = the smallest edge
// weight in the live graph.) Entries that are still +inf are *unknown*: the
// true distance is anywhere in [max(1, k) * w_min, +inf]. Finite but
// unsettled entries are certainly reachable (the estimate is a witness
// path) with true distance in [max(1, k) * w_min, d̂].
//
// row_closeness_interval() folds those per-entry intervals through the
// closeness formula into a certified [lo, hi] enclosure of the *converged*
// closeness score. The Corrected variant is not monotone in a single
// unknown entry (adding one more reachable-but-far vertex can lower the
// score), so both endpoints are taken over the candidate extremes of
// j = "how many unknowns are truly reachable"; the score as a function of j
// with all-near (resp. all-far) distances is a ratio of quadratics with at
// most one interior extremum, so checking j in {0, interior, all} is exact.
//
// Intervals are widened by kIntervalSlack on both sides unless the row is
// certified exact, mirroring the repo-wide 1e-9 comparison tolerance: the
// relaxation epsilon means converged values can sit a hair off the
// infinite-precision score, and a *sound* interval must still contain them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "core/closeness.hpp"

namespace aa {

/// Slack added to non-exact interval endpoints, matching the repo-wide
/// floating-point comparison tolerance.
inline constexpr double kIntervalSlack = 1e-9;

/// A certified enclosure of one vertex's converged closeness score.
struct ClosenessInterval {
    double lo{0};
    double hi{0};
    /// True when lo == hi up to the relaxation epsilon: every entry of the
    /// row is settled (or the engine is quiescent), so the current score is
    /// the converged score.
    bool exact{false};
    /// Entries of the row certified exact by the wavefront bound (including
    /// the diagonal).
    std::size_t settled{0};
    /// Finite entries (current lower bound on the reachable count).
    std::size_t reached{0};
};

/// Everything the per-row interval math needs from the engine, captured once
/// per boundary (see AnytimeEngine::bounds_params).
struct BoundsParams {
    std::size_t n{0};
    ClosenessVariant variant{ClosenessVariant::Corrected};
    /// Smallest / largest edge weight in the live graph (kInfinity / 0 for
    /// an edgeless graph — every off-diagonal entry is then unknown and
    /// unreachable respectively, and the interval code guards the products).
    Weight w_min{kInfinity};
    Weight w_max{0};
    /// Completed RC steps since the last structural base case; -1 = only the
    /// diagonal is trusted (no base case established yet).
    std::int64_t wavefront_k{-1};
    /// Quiescent engines are converged: intervals collapse to the exact
    /// score and +inf entries are certified unreachable.
    bool quiescent{false};
};

/// Certified closeness interval for one distance row (row[self] == 0).
/// `row` is the vertex's current DV row of length params.n.
ClosenessInterval row_closeness_interval(std::span<const Weight> row,
                                         VertexId self,
                                         const BoundsParams& params);

}  // namespace aa
