// temporal_replay — replay a timestamped edge stream through the engine.
//
// Input: SNAP temporal edge-list lines "u v t [w]" ('#' comments ignored).
// A line may carry a leading op keyword for fully-dynamic traces:
//
//   add u v t [w]       same as the bare form (w defaults to 1)
//   remove u v t        delete the edge (absent edges are skipped)
//   reweight u v t w    set the edge weight to w (increase or decrease)
//
// The stream is split into time windows; the first `--warmup` fraction forms
// the initial static graph (ops in the warmup prefix mutate it directly),
// then each window is applied as a dynamic update: previously unseen
// endpoints become a vertex-addition batch (assigned via the chosen
// strategy), edges between known vertices go through the anywhere
// edge-addition path, and the window's removes/reweights form one
// ShrinkBatch applied after the adds. Prints a timeline and a final
// centrality report, with an optional exact verification.
//
//   temporal_replay edges.tsv --windows 10 --strategy cutedge --verify
//   temporal_replay --synth 800 --backend seq   (ranks one after another)
//   temporal_replay --synth 800 --windows 8        (no file: synthesize)
//   temporal_replay --synth 800 --timeline replay.json --timeline-csv spans.csv
//
// Synthesized streams (--synth) include a churn tail: a deterministic
// selection of early edges is removed or reweighted in the later windows,
// so the fully-dynamic path is exercised without an input file.
//
// --timeline / --timeline-csv write the aa.timeline.v1 block (JSON) or the
// raw span stream (CSV) for the whole replay after convergence.
//
// --backend seq|threaded picks the rank execution backend; the default is
// EngineConfig's (threaded, thread-per-core). Results are bit-identical
// either way.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "cli_parse.hpp"
#include "core/baseline.hpp"
#include "core/closeness.hpp"
#include "core/edge_delete.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "core/telemetry.hpp"
#include "graph/generators.hpp"

namespace {

using namespace aa;

enum class TraceOp { Add, Remove, Reweight };

struct TemporalEdge {
    std::uint64_t u;
    std::uint64_t v;
    double time;
    Weight w;
    TraceOp op = TraceOp::Add;
};

std::vector<TemporalEdge> load_stream(std::istream& in) {
    std::vector<TemporalEdge> edges;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#' || line[0] == '%') {
            continue;
        }
        std::istringstream fields(line);
        TemporalEdge e{0, 0, 0, 1.0, TraceOp::Add};
        if (std::isalpha(static_cast<unsigned char>(line[0]))) {
            std::string op;
            fields >> op;
            if (op == "add") {
                e.op = TraceOp::Add;
            } else if (op == "remove" || op == "del" || op == "delete") {
                e.op = TraceOp::Remove;
            } else if (op == "reweight") {
                e.op = TraceOp::Reweight;
            } else {
                std::fprintf(stderr, "skipping unknown op: %s\n", line.c_str());
                continue;
            }
        }
        if (!(fields >> e.u >> e.v >> e.time)) {
            std::fprintf(stderr, "skipping malformed line: %s\n", line.c_str());
            continue;
        }
        const bool got_weight = static_cast<bool>(fields >> e.w);
        if (e.op == TraceOp::Reweight && !got_weight) {
            std::fprintf(stderr, "skipping reweight without weight: %s\n",
                         line.c_str());
            continue;
        }
        if (e.u != e.v && (e.op == TraceOp::Remove || e.w > 0)) {
            edges.push_back(e);
        }
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const TemporalEdge& a, const TemporalEdge& b) {
                         return a.time < b.time;
                     });
    return edges;
}

/// Synthesize a growth-like temporal stream: a BA graph whose edges are
/// timestamped by the creation order of their newer endpoint, plus a churn
/// tail — some early edges are later removed, others reweighted — so the
/// fully-dynamic remove/reweight path runs even without an input file.
std::vector<TemporalEdge> synth_stream(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    const auto g = barabasi_albert(n, 3, rng);
    std::vector<TemporalEdge> edges;
    std::vector<Edge> early;
    for (const Edge& e : g.edges()) {
        edges.push_back(
            {e.u, e.v, static_cast<double>(std::max(e.u, e.v)), 1.0});
        if (std::max(e.u, e.v) < n / 4) {
            early.push_back(e);
        }
    }
    const std::size_t churn = std::min(early.size() / 2, n / 25 + 1);
    const double spread = static_cast<double>(n) / 2.0;
    for (std::size_t i = 0; i < churn; ++i) {
        // Deterministic pick without replacement from the early edges.
        const std::size_t pick = rng.uniform(early.size());
        const Edge e = early[pick];
        early.erase(early.begin() + static_cast<std::ptrdiff_t>(pick));
        const double when =
            spread + spread * static_cast<double>(i + 1) /
                         static_cast<double>(churn + 1);
        if (i % 2 == 0) {
            edges.push_back({e.u, e.v, when, 1.0, TraceOp::Remove});
        } else {
            edges.push_back({e.u, e.v, when, 2.0, TraceOp::Reweight});
        }
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const TemporalEdge& a, const TemporalEdge& b) {
                         return a.time < b.time;
                     });
    return edges;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace aa;

    std::string path;
    std::size_t windows = 10;
    double warmup = 0.5;
    std::string strategy_name = "rr";
    std::uint32_t ranks = 8;
    std::uint64_t seed = 42;
    std::size_t synth = 0;
    bool verify = false;
    std::string timeline_json;
    std::string timeline_csv;
    BackendKind backend = EngineConfig{}.backend;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "error: missing value for %s\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // A bad numeric value is an `error:` line and exit 2, never a crash.
        const auto reject = [&](const std::string& text, const char* expected) {
            std::fprintf(stderr, "error: %s needs %s, got '%s'\n", arg.c_str(), expected,
                         text.c_str());
            std::exit(2);
        };
        const auto integer = [&](std::uint64_t lo, std::uint64_t hi, const char* expected) {
            const std::string text = value();
            std::uint64_t out = 0;
            if (!cli::parse_integer(text, lo, hi, out)) {
                reject(text, expected);
            }
            return out;
        };
        constexpr auto kAny = std::numeric_limits<std::uint64_t>::max();
        if (arg == "--windows") windows = integer(1, kAny, "an integer >= 1");
        else if (arg == "--warmup") {
            const std::string text = value();
            if (!cli::parse_number(text, 0.0, 1.0, warmup)) {
                reject(text, "a fraction in [0, 1]");
            }
        }
        else if (arg == "--strategy") strategy_name = value();
        else if (arg == "--ranks") {
            ranks = static_cast<std::uint32_t>(integer(
                1, std::numeric_limits<std::uint32_t>::max(), "a rank count >= 1"));
        }
        else if (arg == "--seed") seed = integer(0, kAny, "an unsigned integer");
        else if (arg == "--synth") synth = integer(0, kAny, "an unsigned integer");
        else if (arg == "--verify") verify = true;
        else if (arg == "--timeline") timeline_json = value();
        else if (arg == "--timeline-csv") timeline_csv = value();
        else if (arg == "--backend") {
            const std::string name = value();
            if (!parse_backend_kind(name, backend)) {
                std::fprintf(stderr,
                             "error: unknown backend '%s' (valid: seq, "
                             "threaded)\n",
                             name.c_str());
                return 2;
            }
        }
        else if (arg[0] == '-') {
            std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
            return 2;
        } else {
            path = arg;
        }
    }

    std::vector<TemporalEdge> stream;
    if (!path.empty()) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return 2;
        }
        stream = load_stream(in);
    } else {
        if (synth == 0) {
            synth = 800;
        }
        stream = synth_stream(synth, seed);
        std::printf("no input file: synthesized growth stream of %zu edges\n",
                    stream.size());
    }
    if (stream.empty()) {
        std::fprintf(stderr, "empty edge stream\n");
        return 2;
    }

    // Dense remap in first-appearance order; warmup prefix = initial graph.
    const std::size_t warmup_edges = std::max<std::size_t>(
        1, static_cast<std::size_t>(warmup * static_cast<double>(stream.size())));
    std::map<std::uint64_t, VertexId> remap;
    const auto intern = [&remap](std::uint64_t raw) {
        const auto [it, inserted] =
            remap.emplace(raw, static_cast<VertexId>(remap.size()));
        return it->second;
    };

    DynamicGraph initial;
    for (std::size_t i = 0; i < warmup_edges; ++i) {
        if (stream[i].op != TraceOp::Add) {
            // Warmup-prefix churn mutates the initial graph directly.
            const auto u = remap.find(stream[i].u);
            const auto v = remap.find(stream[i].v);
            if (u == remap.end() || v == remap.end() ||
                !(initial.edge_weight(u->second, v->second) < kInfinity)) {
                continue;
            }
            if (stream[i].op == TraceOp::Remove) {
                initial.remove_edge(u->second, v->second);
            } else {
                initial.set_edge_weight(u->second, v->second, stream[i].w);
            }
            continue;
        }
        const auto u = intern(stream[i].u);
        const auto v = intern(stream[i].v);
        const auto needed = static_cast<std::size_t>(std::max(u, v)) + 1;
        if (initial.num_vertices() < needed) {
            initial.add_vertices(needed - initial.num_vertices());
        }
        initial.add_edge(u, v, stream[i].w);
    }

    EngineConfig config;
    config.num_ranks = ranks;
    config.ia_threads = 4;
    config.seed = seed;
    config.backend = backend;
    config.enable_metrics = !timeline_json.empty() || !timeline_csv.empty();
    DynamicGraph mirror = initial;
    AnytimeEngine engine(std::move(initial), config);
    engine.initialize();
    engine.run_rc_steps(2);
    std::printf("[%8.4fs] warmup graph: %zu vertices, %zu edges (%zu stream "
                "edges), %u ranks\n",
                engine.sim_seconds(), engine.num_vertices(), mirror.num_edges(),
                warmup_edges, ranks);

    RoundRobinPS round_robin;
    CutEdgePS cut_edge(seed * 13 + 5);
    RepartitionS repartition;
    VertexAdditionStrategy* strategy = &round_robin;
    if (strategy_name == "cutedge") {
        strategy = &cut_edge;
    } else if (strategy_name == "repart") {
        strategy = &repartition;
    }

    // Remaining stream split into equal windows of edges.
    const std::size_t remaining = stream.size() - warmup_edges;
    const std::size_t per_window = std::max<std::size_t>(1, remaining / windows);
    std::size_t cursor = warmup_edges;
    std::size_t window_index = 0;
    while (cursor < stream.size()) {
        const std::size_t end = std::min(stream.size(), cursor + per_window);
        // Partition window edges into new-vertex batch vs old-vertex edges.
        GrowthBatch batch;
        batch.base_id = static_cast<VertexId>(mirror.num_vertices());
        std::vector<Edge> old_edges;
        ShrinkBatch shrink;
        std::map<std::uint64_t, VertexId> fresh;  // raw -> new dense id
        for (std::size_t i = cursor; i < end; ++i) {
            if (stream[i].op != TraceOp::Add) {
                // Removes/reweights can only touch already-known vertices.
                const auto u = remap.find(stream[i].u);
                const auto v = remap.find(stream[i].v);
                if (u == remap.end() || v == remap.end()) {
                    std::fprintf(stderr,
                                 "skipping op on unknown vertices %llu %llu\n",
                                 static_cast<unsigned long long>(stream[i].u),
                                 static_cast<unsigned long long>(stream[i].v));
                    continue;
                }
                const Edge e{u->second, v->second, stream[i].w};
                if (stream[i].op == TraceOp::Remove) {
                    shrink.deletions.push_back(e);
                } else {
                    shrink.reweights.push_back(e);
                }
                continue;
            }
            const auto resolve = [&](std::uint64_t raw) -> VertexId {
                const auto known = remap.find(raw);
                if (known != remap.end()) {
                    return known->second;
                }
                const auto [it, inserted] = fresh.emplace(
                    raw, batch.base_id + static_cast<VertexId>(fresh.size()));
                if (inserted) {
                    remap.emplace(raw, it->second);
                }
                return it->second;
            };
            const VertexId u = resolve(stream[i].u);
            const VertexId v = resolve(stream[i].v);
            if (u >= batch.base_id || v >= batch.base_id) {
                batch.edges.push_back({u, v, stream[i].w});
            } else {
                old_edges.push_back({u, v, stream[i].w});
            }
        }
        batch.num_new = fresh.size();

        if (batch.num_new > 0) {
            engine.apply_addition(batch, *strategy);
            mirror = apply_batch(mirror, batch);
        }
        if (!old_edges.empty()) {
            engine.add_edges(old_edges);
            for (const Edge& e : old_edges) {
                mirror.add_edge(e.u, e.v, e.weight);
            }
        }
        if (!shrink.deletions.empty() || !shrink.reweights.empty()) {
            // Adds first, then the shrink batch: a remove of an edge added
            // in the same window deletes it, matching the mirror below.
            engine.apply_deletion(shrink);
            for (const Edge& e : shrink.deletions) {
                if (mirror.edge_weight(e.u, e.v) < kInfinity) {
                    mirror.remove_edge(e.u, e.v);
                }
            }
            for (const Edge& e : shrink.reweights) {
                if (mirror.edge_weight(e.u, e.v) < kInfinity) {
                    mirror.set_edge_weight(e.u, e.v, e.weight);
                }
            }
        }
        engine.rc_step();  // one refinement step between windows
        std::printf("[%8.4fs] window %zu: +%zu vertices, +%zu edges (%zu to "
                    "existing), -%zu edges, %zu reweights -> %zu vertices\n",
                    engine.sim_seconds(), ++window_index, batch.num_new,
                    batch.edges.size() + old_edges.size(), old_edges.size(),
                    shrink.deletions.size(), shrink.reweights.size(),
                    engine.num_vertices());
        cursor = end;
    }

    engine.run_to_quiescence();
    const auto scores = engine.closeness();
    const auto ranking = closeness_ranking(scores);
    std::printf("[%8.4fs] replay complete: %zu vertices, RC%zu\n",
                engine.sim_seconds(), engine.num_vertices(),
                engine.rc_steps_completed());
    std::printf("top-5 closeness:");
    for (int i = 0; i < 5 && i < static_cast<int>(ranking.size()); ++i) {
        std::printf(" %u", ranking[i]);
    }
    std::printf("\n");

    const auto dump = [&engine](const std::string& out_path,
                                const std::string& payload) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
            return false;
        }
        out << payload << '\n';
        std::printf("[%8.4fs] timeline written to %s\n", engine.sim_seconds(),
                    out_path.c_str());
        return true;
    };
    if (!timeline_json.empty() && !dump(timeline_json, telemetry_json(engine))) {
        return 2;
    }
    if (!timeline_csv.empty() && !dump(timeline_csv, telemetry_csv(engine))) {
        return 2;
    }

    if (verify) {
        const auto exact = exact_apsp(mirror);
        const auto matrix = engine.full_distance_matrix();
        std::size_t mismatches = 0;
        for (std::size_t v = 0; v < exact.size(); ++v) {
            for (std::size_t t = 0; t < exact.size(); ++t) {
                const bool both_inf =
                    !(matrix[v][t] < kInfinity) && !(exact[v][t] < kInfinity);
                if (!both_inf && std::abs(matrix[v][t] - exact[v][t]) > 1e-9) {
                    ++mismatches;
                }
            }
        }
        std::printf("verify: %zu mismatches (%s)\n", mismatches,
                    mismatches == 0 ? "EXACT" : "FAILED");
        return mismatches == 0 ? 0 : 1;
    }
    return 0;
}
