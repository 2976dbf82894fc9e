// Top-k closeness over a result snapshot by full selection.
//
// Ordering is the library-wide ranking order (closeness_ranking, see
// topk_outranks in serve/snapshot.hpp): score descending, vertex id
// ascending on ties — a strict total order, since ids are unique.
// `topk_from_snapshot` is therefore always the k-prefix of closeness_ranking
// over the same scores.
//
// The snapshot builder selects each snapshot's top-K
// (ServeConfig::topk_maintained) once, through this function, and stores it
// on the snapshot; a snapshot whose scores are bit-equal to its
// predecessor's (an empty changed list at the same n) carries the
// predecessor's list over instead. QueryService answers top-k reads with
// k <= K from that list and selects here only for larger k.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "serve/snapshot.hpp"

namespace aa {

/// The top min(k, n) vertices of a snapshot by full selection — the k-prefix
/// of closeness_ranking(snapshot.scores), scores included.
std::vector<TopKEntry> topk_from_snapshot(const ResultSnapshot& snapshot,
                                          std::size_t k);

}  // namespace aa
