#include "serve/topk.hpp"

#include <algorithm>

namespace aa {

std::vector<TopKEntry> topk_from_snapshot(const ResultSnapshot& snapshot,
                                          std::size_t k) {
    const std::size_t n = snapshot.scores.size();
    std::vector<TopKEntry> entries;
    entries.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        entries.push_back(
            {static_cast<VertexId>(v), snapshot.scores.closeness(v)});
    }
    const std::size_t want = std::min(k, n);
    std::partial_sort(entries.begin(), entries.begin() + want, entries.end(),
                      topk_outranks);
    entries.resize(want);
    return entries;
}

}  // namespace aa
