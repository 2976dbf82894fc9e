// Top-k closeness over result snapshots: a one-shot selection over the whole
// snapshot or over a subset of its vertices.
//
// Ordering is the library-wide ranking order (closeness_ranking): score
// descending, vertex id ascending on ties — a strict total order, since ids
// are unique. `topk_from_snapshot` is therefore always the k-prefix of
// closeness_ranking over the same scores.
//
// QueryService keeps one ranked partial per logical shard (its read planes)
// and merges them at read time. Between consecutive snapshots it re-selects
// a plane with `topk_from_subset` only when one of the plane's members is in
// the snapshot's changed list; every other plane's members kept their exact
// score bits, so its ranking carries over unchanged. The merge is exact
// because the global k-prefix is contained in the union of the per-shard
// k-prefixes.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "serve/snapshot.hpp"

namespace aa {

struct TopKEntry {
    VertexId vertex{0};
    Weight score{0};

    friend bool operator==(const TopKEntry&, const TopKEntry&) = default;
};

/// True if `a` outranks `b`: higher score, ties broken by smaller id.
inline bool topk_outranks(const TopKEntry& a, const TopKEntry& b) {
    if (a.score != b.score) {
        return a.score > b.score;
    }
    return a.vertex < b.vertex;
}

/// The top min(k, n) vertices of a snapshot by full selection — the k-prefix
/// of closeness_ranking(snapshot.scores), scores included.
std::vector<TopKEntry> topk_from_snapshot(const ResultSnapshot& snapshot,
                                          std::size_t k);

/// Selection restricted to `members` (any order, unique): the k-prefix of the
/// ranking over just those vertices. The service's per-shard planes select
/// through this.
std::vector<TopKEntry> topk_from_subset(const ResultSnapshot& snapshot,
                                        std::span<const VertexId> members,
                                        std::size_t k);

}  // namespace aa
