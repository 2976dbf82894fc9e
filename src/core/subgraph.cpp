#include "core/subgraph.hpp"

#include <algorithm>

namespace aa {
namespace {

std::uint32_t rank_count(std::span<const RankId> owners, RankId at_least) {
    RankId max_rank = at_least;
    for (const RankId r : owners) {
        max_rank = std::max(max_rank, r);
    }
    return max_rank + 1;
}

}  // namespace

LocalSubgraph::LocalSubgraph(RankId rank, ShardOwnership ownership)
    : rank_(rank), ownership_(std::move(ownership)) {
    for (VertexId v = 0; v < ownership_.num_vertices(); ++v) {
        if (ownership_.owned_by(v, rank_)) {
            adopt(v);
        }
    }
}

LocalSubgraph::LocalSubgraph(RankId rank, std::vector<RankId> owners)
    : LocalSubgraph(rank, ShardOwnership::from_partition(
                              owners, rank_count(owners, rank), 1)) {}

void LocalSubgraph::extend_ownership(std::span<const RankId> new_owners) {
    const auto base = static_cast<VertexId>(ownership_.num_vertices());
    ownership_.extend(new_owners);
    for (std::size_t i = 0; i < new_owners.size(); ++i) {
        if (new_owners[i] == rank_) {
            adopt(base + static_cast<VertexId>(i));
        }
    }
}

LocalId LocalSubgraph::adopt(VertexId global) {
    AA_ASSERT(global < ownership_.num_vertices());
    AA_ASSERT(ownership_.owned_by(global, rank_));
    AA_ASSERT_MSG(!index_.contains(global), "vertex adopted twice");
    const auto local = static_cast<LocalId>(locals_.size());
    locals_.push_back(global);
    index_.emplace(global, local);
    adjacency_.emplace_back();
    return local;
}

LocalId LocalSubgraph::release(VertexId global) {
    AA_ASSERT_MSG(!owns(global), "release before repointing the shard map");
    const auto it = index_.find(global);
    AA_ASSERT_MSG(it != index_.end(), "releasing a vertex this rank never held");
    const LocalId slot = it->second;
    std::vector<Neighbor> released = std::move(adjacency_[slot]);

    // Drop the released row's reverse-index entries for neighbors that stay
    // external; still-local neighbors are handled after the swap, once their
    // local ids are final.
    for (const Neighbor& nb : released) {
        if (!owns(nb.to)) {
            const auto ext = external_adj_.find(nb.to);
            if (ext != external_adj_.end()) {
                std::erase_if(ext->second,
                              [slot](const std::pair<LocalId, Weight>& e) {
                                  return e.first == slot;
                              });
                if (ext->second.empty()) {
                    external_adj_.erase(ext);
                }
            }
        }
    }

    // Swap-remove, renumbering the displaced last row's reverse entries.
    const auto last = static_cast<LocalId>(locals_.size() - 1);
    if (slot != last) {
        locals_[slot] = locals_[last];
        index_[locals_[slot]] = slot;
        adjacency_[slot] = std::move(adjacency_[last]);
        for (const Neighbor& nb : adjacency_[slot]) {
            if (!owns(nb.to)) {
                const auto ext = external_adj_.find(nb.to);
                if (ext != external_adj_.end()) {
                    for (auto& e : ext->second) {
                        if (e.first == last) {
                            e.first = slot;
                        }
                    }
                }
            }
        }
    }
    locals_.pop_back();
    adjacency_.pop_back();
    index_.erase(global);

    // The departed vertex is now an external boundary vertex of every
    // neighbor it left behind.
    std::vector<std::pair<LocalId, Weight>> left_behind;
    for (const Neighbor& nb : released) {
        if (owns(nb.to)) {
            left_behind.emplace_back(index_.at(nb.to), nb.weight);
        }
    }
    if (!left_behind.empty()) {
        external_adj_[global] = std::move(left_behind);
    }
    return slot;
}

LocalId LocalSubgraph::adopt_migrated(VertexId global,
                                      std::span<const Neighbor> adjacency) {
    const LocalId local = adopt(global);
    adjacency_[local].assign(adjacency.begin(), adjacency.end());
    // The arrival stops being an external boundary vertex here; its cut
    // edges to still-remote neighbors gain reverse entries instead.
    external_adj_.erase(global);
    for (const Neighbor& nb : adjacency_[local]) {
        if (!owns(nb.to)) {
            external_adj_[nb.to].emplace_back(local, nb.weight);
        }
    }
    return local;
}

void LocalSubgraph::add_local_edge(VertexId u, VertexId v, Weight w) {
    AA_ASSERT_MSG(owns(u) || owns(v), "edge touches no owned vertex");
    AA_ASSERT(u != v);
    if (owns(u)) {
        adjacency_[index_.at(u)].push_back({v, w});
        if (!owns(v)) {
            external_adj_[v].push_back({index_.at(u), w});
        }
    }
    if (owns(v)) {
        adjacency_[index_.at(v)].push_back({u, w});
        if (!owns(u)) {
            external_adj_[u].push_back({index_.at(v), w});
        }
    }
}

void LocalSubgraph::update_edge_weight(VertexId u, VertexId v, Weight w) {
    AA_ASSERT_MSG(owns(u) || owns(v), "edge touches no owned vertex");
    const auto update_list = [this, w](VertexId owned, VertexId other) {
        for (Neighbor& nb : adjacency_[index_.at(owned)]) {
            if (nb.to == other) {
                nb.weight = w;
            }
        }
        if (!owns(other)) {
            const LocalId local = index_.at(owned);
            for (auto& [l, edge_w] : external_adj_[other]) {
                if (l == local) {
                    edge_w = w;
                }
            }
        }
    };
    if (owns(u)) {
        update_list(u, v);
    }
    if (owns(v)) {
        update_list(v, u);
    }
}

void LocalSubgraph::remove_local_edge(VertexId u, VertexId v) {
    AA_ASSERT_MSG(owns(u) || owns(v), "edge touches no owned vertex");
    const auto remove_from = [this](VertexId owned, VertexId other) {
        const LocalId local = index_.at(owned);
        std::erase_if(adjacency_[local],
                      [other](const Neighbor& nb) { return nb.to == other; });
        if (!owns(other)) {
            const auto it = external_adj_.find(other);
            if (it != external_adj_.end()) {
                std::erase_if(it->second,
                              [local](const std::pair<LocalId, Weight>& e) {
                                  return e.first == local;
                              });
                if (it->second.empty()) {
                    external_adj_.erase(it);
                }
            }
        }
    };
    if (owns(u)) {
        remove_from(u, v);
    }
    if (owns(v)) {
        remove_from(v, u);
    }
}

std::span<const std::pair<LocalId, Weight>> LocalSubgraph::external_neighbors(
    VertexId global) const {
    const auto it = external_adj_.find(global);
    if (it == external_adj_.end()) {
        return {};
    }
    return it->second;
}

std::vector<VertexId> LocalSubgraph::external_boundary() const {
    std::vector<VertexId> externals;
    externals.reserve(external_adj_.size());
    for (const auto& [global, edges] : external_adj_) {
        externals.push_back(global);
    }
    std::sort(externals.begin(), externals.end());
    return externals;
}

bool LocalSubgraph::is_boundary(LocalId local) const {
    AA_ASSERT(local < adjacency_.size());
    return std::any_of(adjacency_[local].begin(), adjacency_[local].end(),
                       [this](const Neighbor& nb) { return !owns(nb.to); });
}

std::vector<RankId> LocalSubgraph::neighbor_ranks(LocalId local) const {
    AA_ASSERT(local < adjacency_.size());
    std::vector<RankId> ranks;
    for (const Neighbor& nb : adjacency_[local]) {
        const RankId r = ownership_.owner(nb.to);
        if (r != rank_ && std::find(ranks.begin(), ranks.end(), r) == ranks.end()) {
            ranks.push_back(r);
        }
    }
    std::sort(ranks.begin(), ranks.end());
    return ranks;
}

}  // namespace aa
