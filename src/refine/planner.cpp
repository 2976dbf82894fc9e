#include "refine/planner.hpp"

#include <algorithm>
#include <numeric>

namespace aa {
namespace {

double vertex_signal(VertexId v, std::span<const double> values) {
    return v < values.size() ? values[v] : 0.0;
}

double vertex_signal(VertexId v, std::span<const std::uint8_t> values) {
    return v < values.size() ? static_cast<double>(values[v]) : 0.0;
}

}  // namespace

std::string_view refine_policy_name(RefinePolicy policy) {
    switch (policy) {
        case RefinePolicy::Uniform:
            return "uniform";
        case RefinePolicy::QueryHeat:
            return "heat";
        case RefinePolicy::TopKPruned:
            return "topk";
    }
    return "uniform";
}

bool parse_refine_policy(std::string_view name, RefinePolicy& out) {
    if (name == "uniform") {
        out = RefinePolicy::Uniform;
    } else if (name == "heat") {
        out = RefinePolicy::QueryHeat;
    } else if (name == "topk") {
        out = RefinePolicy::TopKPruned;
    } else {
        return false;
    }
    return true;
}

std::vector<LocalId> plan_rank_order(const LocalSubgraph& sg,
                                     std::span<const double> heat,
                                     std::span<const std::uint8_t> focus) {
    const std::size_t local = sg.num_local();
    if (local == 0 || (heat.empty() && focus.empty())) {
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
    const auto smear = [&](auto&& signal) {
        std::vector<double> base(local, 0.0);
        for (LocalId l = 0; l < local; ++l) {
            base[l] = vertex_signal(sg.global_id(l), signal);
        }
        std::vector<double> cur = base;
        std::vector<double> next(local, 0.0);
        constexpr int kSmearHops = 4;
        constexpr double kSmearDecay = 0.5;
        for (int hop = 0; hop < kSmearHops; ++hop) {
            for (LocalId l = 0; l < local; ++l) {
                double inflow = 0;
                for (const Neighbor& nb : sg.neighbors(l)) {
                    inflow += sg.owns(nb.to) ? cur[sg.local_id(nb.to)]
                                             : vertex_signal(nb.to, signal);
                }
                next[l] = base[l] + kSmearDecay * inflow;
            }
            cur.swap(next);
        }
        return cur;
    };
    const std::vector<double> row_heat = smear(heat);
    const std::vector<double> row_focus = smear(focus);
    bool any = false;
    for (LocalId l = 0; l < local; ++l) {
        any = any || row_heat[l] > 0 || row_focus[l] > 0;
    }
    if (!any) {
        return {};
    }

    std::vector<LocalId> order(local);
    std::iota(order.begin(), order.end(), LocalId{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](LocalId a, LocalId b) {
                         if (row_focus[a] != row_focus[b]) {
                             return row_focus[a] > row_focus[b];
                         }
                         if (row_heat[a] != row_heat[b]) {
                             return row_heat[a] > row_heat[b];
                         }
                         return a < b;
                     });
    return order;
}

}  // namespace aa
