#include "refine/planner.hpp"

#include <algorithm>
#include <numeric>

namespace aa {
namespace {

double vertex_heat(VertexId v, std::span<const double> heat) {
    return v < heat.size() ? heat[v] : 0.0;
}

}  // namespace

std::string_view refine_policy_name(RefinePolicy policy) {
    switch (policy) {
        case RefinePolicy::Uniform:
            return "uniform";
        case RefinePolicy::QueryHeat:
            return "heat";
    }
    return "uniform";
}

bool parse_refine_policy(std::string_view name, RefinePolicy& out) {
    if (name == "uniform") {
        out = RefinePolicy::Uniform;
    } else if (name == "heat") {
        out = RefinePolicy::QueryHeat;
    } else {
        return false;
    }
    return true;
}

std::vector<LocalId> plan_rank_order(const LocalSubgraph& sg,
                                     std::span<const double> heat) {
    const std::size_t local = sg.num_local();
    if (local == 0 || heat.empty()) {
        return {};
    }

    // Row priority = own signal + a decayed multi-hop smear. One hop is not
    // enough: a hot row's missing columns arrive along drain *chains* that
    // run several hops (and several ranks) away from it, so the rows between
    // the wave and a hot destination need priority too. Iterating a halved
    // diffusion kSmearHops times gives every row a gradient proportional to
    // its proximity to query mass. Cross-rank neighbors contribute their raw
    // (global) heat each round — their smeared values live on other ranks —
    // which is what carries the gradient across partition boundaries.
    std::vector<double> base(local, 0.0);
    for (LocalId l = 0; l < local; ++l) {
        base[l] = vertex_heat(sg.global_id(l), heat);
    }
    std::vector<double> row_heat = base;
    std::vector<double> next(local, 0.0);
    constexpr int kSmearHops = 4;
    constexpr double kSmearDecay = 0.5;
    for (int hop = 0; hop < kSmearHops; ++hop) {
        for (LocalId l = 0; l < local; ++l) {
            double inflow = 0;
            for (const Neighbor& nb : sg.neighbors(l)) {
                inflow += sg.owns(nb.to) ? row_heat[sg.local_id(nb.to)]
                                         : vertex_heat(nb.to, heat);
            }
            next[l] = base[l] + kSmearDecay * inflow;
        }
        row_heat.swap(next);
    }
    if (std::none_of(row_heat.begin(), row_heat.end(),
                     [](double h) { return h > 0; })) {
        return {};
    }

    std::vector<LocalId> order(local);
    std::iota(order.begin(), order.end(), LocalId{0});
    std::stable_sort(order.begin(), order.end(), [&](LocalId a, LocalId b) {
        if (row_heat[a] != row_heat[b]) {
            return row_heat[a] > row_heat[b];
        }
        return a < b;
    });
    return order;
}

}  // namespace aa
