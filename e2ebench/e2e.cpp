// End-to-end benchmark of the anytime-anywhere engine.
//
// Three workloads drive the library's public API the way a user would:
//   grow  — the paper's setting: converge a Barabasi-Albert host, then absorb
//           a closed-loop stream of community-structured vertex batches
//           (RoundRobin-PS / CutEdge-PS alternating, every 12th a large batch
//           through Repartition-S), each run to quiescence.
//   churn — fully dynamic updates: every batch deletes edges and a vertex,
//           raises weights and adds vertices; every 8th also moves a shard.
//   serve — reads beside writes: a QueryService answers two closed-loop
//           reader threads while addition batches arrive open-loop on a
//           fixed cadence.
// Every workload ends with the same tail: readers against a quiescent
// service, then a checkpoint save / restore / resettle of the final state.
//
// The engine runs with the default EngineConfig; only num_ranks = 8 and the
// seed are set. Inputs (graph, batches, queries) are generated from --seed
// before the engine sees them; graph generation is never timed.
//
// A run repeats its workload in rounds until --seconds have passed and
// reports medians: per-batch latencies pooled over rounds, three recoveries
// per round, and set-up plus converge on extra engines until there are at
// least seven samples of each. With --trace 1 it runs one plain round and
// one traced round: the traced round charges the wall time of every call into the
// library to its layer (ia, rc, add, delete, migrate, checkpoint, serve),
// does the observation work the per-layer counters need, and then replays
// the converge phase kernel by kernel to split RC time into its
// post / exchange / ingest / propagate phases. Nothing inside src/ is
// instrumented for this.
//
// Correctness gates (any failure is listed under "gates" and fails the run):
// sampled rows against an independent Dijkstra on engine.graph(), identical
// simulated time across rounds, the restored checkpoint's closeness, the
// serve layer's version monotonicity and final snapshot, and (traced) the
// replay's op count against the engine's.
//
// Usage: e2e --workload grow|churn|serve --seed N --seconds S --trace 0|1
//            [--scale full|tiny]
// Prints one JSON object on stdout.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/ia.hpp"
#include "core/rc.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "partition/multilevel.hpp"
#include "serve/service.hpp"

namespace {

using namespace aa;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- options and workload sizes --------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10};
    bool trace{false};
    bool tiny{false};
};

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: e2e --workload grow|churn|serve --seed N --seconds S "
                 "--trace 0|1 [--scale full|tiny]\n");
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage();
        }
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            opt.trace = value == "1";
        } else if (flag == "--scale") {
            if (value != "full" && value != "tiny") {
                usage();
            }
            opt.tiny = value == "tiny";
        } else {
            usage();
        }
    }
    if (opt.workload != "grow" && opt.workload != "churn" &&
        opt.workload != "serve") {
        usage();
    }
    return opt;
}

struct Sizes {
    std::size_t n{0};
    std::size_t batches{0};
    // grow
    std::size_t small_batch{0};
    std::size_t big_batch{0};
    std::size_t big_every{0};
    // churn
    std::size_t edge_deletions{0};
    std::size_t weight_raises{0};
    std::size_t vertex_deletions{0};
    std::size_t churn_additions{0};
    std::size_t migrate_every{0};
    // serve
    std::size_t serve_batch{0};
    double cadence_s{0};
    std::size_t readers{2};
    // all: the quiescent read tail uses one reader, so its latencies are
    // not a coin flip on whether two readers' snapshot refcounts contend
    std::size_t tail_readers{1};
    double read_tail_s{0};
    std::size_t check_sources{0};
};

Sizes sizes_for(const Options& opt) {
    Sizes s;
    if (opt.workload == "grow") {
        s.n = opt.tiny ? 300 : 2000;
        s.batches = opt.tiny ? 6 : 24;
        s.small_batch = opt.tiny ? 4 : s.n / 200;  // 0.5% n
        s.big_batch = opt.tiny ? 15 : s.n / 20;    // 5% n
        s.big_every = opt.tiny ? 3 : 12;
    } else if (opt.workload == "churn") {
        s.n = opt.tiny ? 200 : 2000;
        s.batches = opt.tiny ? 4 : 24;
        s.edge_deletions = opt.tiny ? 4 : 8;
        s.weight_raises = opt.tiny ? 2 : 4;
        s.vertex_deletions = 1;
        s.churn_additions = opt.tiny ? 4 : 8;
        s.migrate_every = opt.tiny ? 2 : 8;
    } else {
        s.n = opt.tiny ? 200 : 2000;
        s.batches = opt.tiny ? 6 : 24;
        s.serve_batch = opt.tiny ? 4 : s.n / 200;
        s.cadence_s = opt.tiny ? 0.02 : 0.08;
    }
    s.read_tail_s = opt.tiny ? 0.1 : 0.5;
    s.check_sources = opt.tiny ? 16 : 64;
    return s;
}

EngineConfig engine_config(std::uint64_t seed) {
    EngineConfig config;
    config.num_ranks = 8;
    config.seed = seed;
    return config;
}

constexpr WeightRange kWeights{1.0, 3.0};
constexpr std::size_t kEdgesPerVertex = 3;
constexpr std::size_t kTopK = 10;
/// Recoveries of each round's final state; recover_s is their median.
constexpr int kRecoveries = 3;
/// Fewest set-up and converge samples a plain run reports a median over.
constexpr std::size_t kMinStartSamples = 7;

// ---- statistics ------------------------------------------------------------

double percentile(std::vector<double> samples, double p) {
    if (samples.empty()) {
        return 0;
    }
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double median(const std::vector<double>& samples) { return percentile(samples, 0.5); }

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- layer ledger ------------------------------------------------------------

enum Layer { kIa, kRc, kAdd, kDelete, kMigrate, kCheckpoint, kServe, kLayers };

/// Host wall time of the driver thread, charged per layer. Every call into
/// the library goes through charge(); a traced round additionally wraps the
/// serve publication hook so publication time is split out of the engine
/// calls that trigger it. Deliberate waits (open-loop cadence, reader
/// windows) and the benchmark's own observation work are kept apart, so
/// busy() is the time the driver spent working.
struct Ledger {
    std::array<double, kLayers> wall{};
    double publish{0};   // running publication total (traced rounds)
    double observer{0};  // benchmark-side observation inside driver phases
    double waited{0};
    Clock::time_point begin{Clock::now()};
    Clock::time_point end{begin};

    /// Time f(), charge it to `layer` minus any publication it triggered.
    /// Returns the gross elapsed seconds.
    template <class F>
    double charge(Layer layer, F&& f) {
        const double publish_before = publish;
        const auto t0 = Clock::now();
        f();
        const double elapsed = seconds_since(t0);
        const double published = publish - publish_before;
        wall[layer] += elapsed - published;
        wall[kServe] += published;
        return elapsed;
    }

    template <class F>
    void observe(F&& f) {
        const auto t0 = Clock::now();
        f();
        observer += seconds_since(t0);
    }

    void wait_until(Clock::time_point t) {
        const auto t0 = Clock::now();
        std::this_thread::sleep_until(t);
        waited += seconds_since(t0);
    }

    void wait_for(double seconds) {
        wait_until(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds)));
    }

    void finish() { end = Clock::now(); }
    double busy() const {
        return std::chrono::duration<double>(end - begin).count() - waited - observer;
    }
    double attributed() const { return std::accumulate(wall.begin(), wall.end(), 0.0); }
};

/// rc_step() until quiescence, each step charged to `layer`. Returns steps.
std::size_t settle(AnytimeEngine& engine, Ledger& ledger, Layer layer = kRc,
                   std::vector<double>* step_ms = nullptr) {
    std::size_t steps = 0;
    while (true) {
        bool stepped = false;
        const double dt = ledger.charge(layer, [&] { stepped = engine.rc_step(); });
        if (!stepped) {
            return steps;
        }
        ++steps;
        if (step_ms != nullptr) {
            step_ms->push_back(dt * 1e3);
        }
    }
}

// ---- correctness -------------------------------------------------------------

struct Gates {
    std::vector<std::string> failures;
    void check(bool ok, const std::string& what) {
        if (!ok) {
            failures.push_back(what);
        }
    }
};

std::vector<Weight> dijkstra(const DynamicGraph& g, VertexId source) {
    std::vector<Weight> dist(g.num_vertices(), kInfinity);
    using Item = std::pair<Weight, VertexId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[source] = 0;
    heap.push({0, source});
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > dist[u]) {
            continue;
        }
        for (const Neighbor& nb : g.neighbors(u)) {
            const Weight cand = d + nb.weight;
            if (cand < dist[nb.to]) {
                dist[nb.to] = cand;
                heap.push({cand, nb.to});
            }
        }
    }
    return dist;
}

/// Relaxation accepts a candidate only when it beats the current value by
/// more than 1e-12, so converged entries may sit above the exact distance by
/// that band per hop plus summation-order noise; 1e-9 relative covers it.
bool close_enough(Weight got, Weight want) {
    if (std::isinf(got) || std::isinf(want)) {
        return std::isinf(got) && std::isinf(want);
    }
    return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

/// Compare the rows of a seeded sample of sources against Dijkstra on the
/// engine's own graph.
void check_rows(const AnytimeEngine& engine, std::size_t samples,
                std::uint64_t seed, Gates& gates, const char* where) {
    const std::size_t n = engine.num_vertices();
    std::vector<VertexId> sources(n);
    std::iota(sources.begin(), sources.end(), 0);
    Rng rng(seed ^ 0xD1B54A32D192ED03ull);
    for (std::size_t i = 0; i < std::min(samples, n); ++i) {
        std::swap(sources[i], sources[i + rng.uniform(n - i)]);
    }
    sources.resize(std::min(samples, n));
    std::size_t bad = 0;
    for (const VertexId s : sources) {
        const std::vector<Weight> want = dijkstra(engine.graph(), s);
        const std::vector<Weight> got = engine.distance_row(s);
        for (std::size_t t = 0; t < n; ++t) {
            bad += close_enough(got[t], want[t]) ? 0 : 1;
        }
    }
    gates.check(engine.quiescent(), std::string(where) + ": engine not quiescent");
    gates.check(bad == 0, std::string(where) + ": " + std::to_string(bad) +
                              " distance entries differ from Dijkstra");
}

bool same_closeness(const ClosenessScores& a, const ClosenessScores& b) {
    if (a.closeness.size() != b.closeness.size()) {
        return false;
    }
    for (std::size_t v = 0; v < a.closeness.size(); ++v) {
        if (!close_enough(a.closeness[v], b.closeness[v]) ||
            a.reachable[v] != b.reachable[v]) {
            return false;
        }
    }
    return true;
}

// ---- generated inputs --------------------------------------------------------

DynamicGraph host_graph(const Sizes& sizes, std::uint64_t seed) {
    Rng rng(seed);
    return barabasi_albert(sizes.n, kEdgesPerVertex, rng, kWeights);
}

GrowthConfig growth(std::size_t num_new) {
    GrowthConfig gc;
    gc.num_new = num_new;
    gc.weights = kWeights;
    return gc;
}

enum class Strategy { RoundRobin, CutEdge, Repartition };

struct GrowStep {
    GrowthBatch batch;
    Strategy strategy{Strategy::RoundRobin};
};

std::vector<GrowStep> grow_inputs(const Sizes& sizes, std::uint64_t seed) {
    Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
    std::vector<GrowStep> steps;
    std::size_t n = sizes.n;
    for (std::size_t b = 0; b < sizes.batches; ++b) {
        GrowStep step;
        const bool big = (b + 1) % sizes.big_every == 0;
        step.strategy = big         ? Strategy::Repartition
                        : b % 2 == 0 ? Strategy::RoundRobin
                                     : Strategy::CutEdge;
        step.batch = grow_batch(n, growth(big ? sizes.big_batch : sizes.small_batch), rng);
        n += step.batch.num_new;
        steps.push_back(std::move(step));
    }
    return steps;
}

struct ChurnStep {
    ShrinkBatch shrink;
    GrowthBatch add;
    /// Index of the shard to move (modulo the shard count); -1 = no move.
    std::int64_t migrate_pick{-1};
};

std::size_t changes_of(const ChurnStep& s) {
    return s.shrink.deletions.size() + s.shrink.reweights.size() +
           s.shrink.vertices.size() + s.add.num_new + s.add.edges.size();
}

/// Churn batches generated against a mirror of the evolving graph, so every
/// deletion and reweight names an edge that exists when the batch arrives.
std::vector<ChurnStep> churn_inputs(const Sizes& sizes, const DynamicGraph& host,
                                    std::uint64_t seed) {
    Rng rng(seed ^ 0xC2B2AE3D27D4EB4Full);
    DynamicGraph mirror = host;
    std::vector<std::uint8_t> deleted(host.num_vertices(), 0);
    std::vector<ChurnStep> steps;
    for (std::size_t b = 0; b < sizes.batches; ++b) {
        ChurnStep step;
        // One vertex with edges left, from the original host range.
        for (std::size_t k = 0; k < sizes.vertex_deletions; ++k) {
            VertexId v = 0;
            do {
                v = static_cast<VertexId>(rng.uniform(host.num_vertices()));
            } while (deleted[v] != 0 || mirror.degree(v) == 0);
            deleted[v] = 1;
            step.shrink.vertices.push_back(v);
        }
        const auto touches_deleted = [&](const Edge& e) {
            return std::find(step.shrink.vertices.begin(), step.shrink.vertices.end(),
                             e.u) != step.shrink.vertices.end() ||
                   std::find(step.shrink.vertices.begin(), step.shrink.vertices.end(),
                             e.v) != step.shrink.vertices.end();
        };
        // Distinct edges, none incident to the deleted vertex: the first
        // picks are deleted, the rest get a weight increase.
        const std::vector<Edge> edges = mirror.edges();
        std::vector<std::size_t> picked;
        while (picked.size() < sizes.edge_deletions + sizes.weight_raises) {
            const std::size_t i = rng.uniform(edges.size());
            if (touches_deleted(edges[i]) ||
                std::find(picked.begin(), picked.end(), i) != picked.end()) {
                continue;
            }
            picked.push_back(i);
        }
        for (std::size_t k = 0; k < picked.size(); ++k) {
            Edge e = edges[picked[k]];
            if (k < sizes.edge_deletions) {
                step.shrink.deletions.push_back(e);
            } else {
                e.weight *= rng.uniform(1.5, 3.0);
                step.shrink.reweights.push_back(e);
            }
        }
        // New vertices; anchors that landed on a deleted vertex move to the
        // next live one the new vertex is not yet attached to.
        step.add = grow_batch(mirror.num_vertices(), growth(sizes.churn_additions), rng);
        for (Edge& e : step.add.edges) {
            if (e.v >= step.add.base_id || deleted[e.v] == 0) {
                continue;
            }
            VertexId w = e.v;
            const auto taken = [&](VertexId cand) {
                return std::any_of(step.add.edges.begin(), step.add.edges.end(),
                                   [&](const Edge& o) { return o.u == e.u && o.v == cand; });
            };
            do {
                w = static_cast<VertexId>((w + 1) % step.add.base_id);
            } while (deleted[w] != 0 || taken(w));
            e.v = w;
        }
        if (sizes.migrate_every != 0 && (b + 1) % sizes.migrate_every == 0) {
            step.migrate_pick = static_cast<std::int64_t>(rng.uniform(1u << 20));
        }
        // Advance the mirror.
        for (const VertexId v : step.shrink.vertices) {
            const std::vector<Neighbor> nbs(mirror.neighbors(v).begin(),
                                            mirror.neighbors(v).end());
            for (const Neighbor& nb : nbs) {
                mirror.remove_edge(v, nb.to);
            }
        }
        for (const Edge& e : step.shrink.deletions) {
            mirror.remove_edge(e.u, e.v);
        }
        for (const Edge& e : step.shrink.reweights) {
            mirror.set_edge_weight(e.u, e.v, e.weight);
        }
        mirror.add_vertices(step.add.num_new);
        deleted.resize(mirror.num_vertices(), 0);
        for (const Edge& e : step.add.edges) {
            mirror.add_edge(e.u, e.v, e.weight);
        }
        steps.push_back(std::move(step));
    }
    return steps;
}

std::vector<GrowthBatch> serve_inputs(const Sizes& sizes, std::uint64_t seed) {
    Rng rng(seed ^ 0x165667B19E3779F9ull);
    std::vector<GrowthBatch> batches;
    std::size_t n = sizes.n;
    for (std::size_t b = 0; b < sizes.batches; ++b) {
        batches.push_back(grow_batch(n, growth(sizes.serve_batch), rng));
        n += sizes.serve_batch;
    }
    return batches;
}

// ---- readers -----------------------------------------------------------------

/// One reader's view of a read window. Every response is checked; latency
/// is kept for an independent 1-in-8 draw of them, per query shape.
struct ReaderLog {
    std::vector<double> point_us;
    std::vector<double> batch_us;
    std::vector<double> topk_us;
    std::uint64_t attempted{0};
    std::uint64_t ok{0};
    std::uint64_t shed{0};
    std::uint64_t unavailable{0};
    std::uint64_t wrong{0};  // Ok answers that failed a check
};

/// Closed-loop ServeStale reader over the first `range` vertices (valid in
/// every snapshot): 60% point, 25% batch of 4-32 vertices, 15% top-10.
/// Versions must never go backwards: per vertex for point and batch reads
/// (both route through the plane of the first vertex's shard, which is
/// monotone), and across top-k reads.
void reader_loop(QueryService& service, std::size_t range, std::uint64_t seed,
                 const std::atomic<bool>& stop, ReaderLog& log) {
    Rng rng(seed);
    Rng sampler(seed ^ 0x5851F42D4C957F2Dull);
    std::vector<std::uint64_t> seen(range, 0);
    std::uint64_t topk_seen = 0;
    std::vector<VertexId> vertices;
    while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t shape = rng.uniform(100);
        const bool keep = sampler.uniform(8) == 0;
        bool good = true;
        QueryStatus status = QueryStatus::Ok;
        const auto t0 = Clock::now();
        if (shape < 60) {
            const auto v = static_cast<VertexId>(rng.uniform(range));
            const PointResult r = service.point(v, FreshnessPolicy::ServeStale);
            const double us = seconds_since(t0) * 1e6;
            status = r.meta.status;
            good = r.meta.version >= seen[v] && r.closeness >= 0 &&
                   std::isfinite(r.closeness);
            seen[v] = std::max(seen[v], r.meta.version);
            if (keep) {
                log.point_us.push_back(us);
            }
        } else if (shape < 85) {
            vertices.resize(4 + rng.uniform(29));
            for (VertexId& v : vertices) {
                v = static_cast<VertexId>(rng.uniform(range));
            }
            const BatchResult r = service.batch(vertices, FreshnessPolicy::ServeStale);
            const double us = seconds_since(t0) * 1e6;
            status = r.meta.status;
            good = r.meta.version >= seen[vertices.front()] &&
                   r.closeness.size() == vertices.size();
            seen[vertices.front()] = std::max(seen[vertices.front()], r.meta.version);
            if (keep) {
                log.batch_us.push_back(us);
            }
        } else {
            const TopKResult r = service.topk(kTopK, FreshnessPolicy::ServeStale);
            const double us = seconds_since(t0) * 1e6;
            status = r.meta.status;
            good = r.meta.version >= topk_seen && r.entries.size() == kTopK &&
                   std::is_sorted(r.entries.begin(), r.entries.end(), topk_outranks);
            topk_seen = std::max(topk_seen, r.meta.version);
            if (keep) {
                log.topk_us.push_back(us);
            }
        }
        ++log.attempted;
        switch (status) {
            case QueryStatus::Ok:
                ++log.ok;
                log.wrong += good ? 0 : 1;
                break;
            case QueryStatus::Shed:
                ++log.shed;
                break;
            case QueryStatus::Unavailable:
                ++log.unavailable;
                break;
        }
    }
}

/// Reader threads for the lifetime of the object; stop() joins them.
class ReaderPool {
public:
    ReaderPool(QueryService& service, std::size_t range, std::size_t readers,
               std::uint64_t seed)
        : logs_(readers), start_(Clock::now()) {
        for (std::size_t t = 0; t < readers; ++t) {
            threads_.emplace_back([this, &service, range, seed, t] {
                reader_loop(service, range, seed ^ (0xC0FFEEull + t), stop_, logs_[t]);
            });
        }
    }
    ~ReaderPool() { stop(); }
    ReaderPool(const ReaderPool&) = delete;
    ReaderPool& operator=(const ReaderPool&) = delete;

    /// Stop and join the readers; returns the window length in seconds.
    double stop() {
        if (!threads_.empty()) {
            stop_.store(true, std::memory_order_relaxed);
            for (std::thread& t : threads_) {
                t.join();
            }
            threads_.clear();
            window_ = seconds_since(start_);
        }
        return window_;
    }
    const std::vector<ReaderLog>& logs() const { return logs_; }

private:
    std::vector<ReaderLog> logs_;
    std::atomic<bool> stop_{false};
    Clock::time_point start_;
    double window_{0};
    std::vector<std::thread> threads_;  // last: joined before logs_ dies
};

// ---- one round -----------------------------------------------------------------

/// Everything one round measured. End-to-end samples feed the untraced
/// report; the per-layer fields are filled only by a traced round.
struct Round {
    // end to end
    double setup_s{0};
    double converge_s{0};
    std::vector<double> update_ms;
    double update_phase_s{0};
    std::size_t changes{0};
    std::vector<double> recover_s;  // one per recovery of the final state
    double sim_s{0};
    double read_window_s{0};
    ReaderLog reads;  // merged over readers
    std::size_t updates{0};
    // per layer (traced)
    Ledger ledger;
    double init_s{0};
    std::vector<RankId> initial_owners;
    std::size_t initial_cut_edges{0};
    double converge_rc_ops{0};
    std::size_t converge_steps{0};
    double ia_ops{0};
    std::vector<double> step_ms;
    EngineReport report;
    ClusterStats cluster;
    std::vector<double> apply_rr_ms, apply_ce_ms, apply_rs_ms, reconverge_ms;
    std::size_t new_cut_edges{0};
    std::vector<double> delete_apply_ms;
    std::size_t seed_suspects{0}, invalidated{0}, cascade_rounds{0};
    std::size_t invalidated_seen{0}, wasted{0};
    std::vector<double> migrate_ms;
    std::size_t migrated_rows{0};
    std::vector<double> save_s, load_s, resettle_s;
    std::size_t checkpoint_bytes{0};
    std::vector<double> publish_ms;
    PublicationStats publication;
    std::size_t topk_patched{0}, topk_rebuilt{0};
    std::vector<double> lag_ms;
    std::size_t final_n{0};
};

void merge_reads(ReaderLog& into, const std::vector<ReaderLog>& logs) {
    for (const ReaderLog& l : logs) {
        into.point_us.insert(into.point_us.end(), l.point_us.begin(), l.point_us.end());
        into.batch_us.insert(into.batch_us.end(), l.batch_us.begin(), l.batch_us.end());
        into.topk_us.insert(into.topk_us.end(), l.topk_us.begin(), l.topk_us.end());
        into.attempted += l.attempted;
        into.ok += l.ok;
        into.shed += l.shed;
        into.unavailable += l.unavailable;
        into.wrong += l.wrong;
    }
}

class Workload {
public:
    Workload(const Options& opt, const Sizes& sizes)
        : opt_(opt), sizes_(sizes), host_(host_graph(sizes, opt.seed)) {
        if (opt.workload == "grow") {
            grow_ = grow_inputs(sizes, opt.seed);
        } else if (opt.workload == "churn") {
            churn_ = churn_inputs(sizes, host_, opt.seed);
        } else {
            serve_ = serve_inputs(sizes, opt.seed);
        }
    }

    const DynamicGraph& host() const { return host_; }

    void release() {
        service_.reset();
        engine_.reset();
    }

    /// Set-up, then RC to the first quiescence (exact APSP of the host).
    void start(Round& r) {
        r.setup_s = setup(r);
        AnytimeEngine& engine = *engine_;
        if (trace_) {
            r.ledger.observe([&] {
                r.initial_owners = engine.owners();
                r.initial_cut_edges = engine.current_cut_edges();
            });
        }
        const auto c0 = Clock::now();
        r.converge_steps = settle(engine, r.ledger, kRc, &r.step_ms);
        r.converge_s = seconds_since(c0);
        r.converge_rc_ops = engine.report().rc_ops;
        r.ia_ops = engine.report().ia_ops;
    }

    void run(Round& r, Gates& gates) {
        start(r);
        AnytimeEngine& engine = *engine_;

        if (opt_.workload == "grow") {
            run_grow(r);
        } else if (opt_.workload == "churn") {
            run_churn(r);
        } else {
            run_serve(r, gates);
        }
        r.sim_s = engine.sim_seconds();
        r.report = engine.report();
        r.cluster = engine.cluster().stats();
        r.final_n = engine.num_vertices();
        r.ledger.observe([&] {
            check_rows(engine, sizes_.check_sources, opt_.seed, gates,
                       opt_.workload.c_str());
        });

        // Tail: quiescent reads (the serve workload already read during its
        // stream), then recovery of the final state.
        if (opt_.workload != "serve") {
            attach_service(r);
            const auto readers = start_readers(r, sizes_.tail_readers);
            r.ledger.wait_for(sizes_.read_tail_s);
            stop_readers(r, *readers);
        }
        gates.check(r.reads.wrong == 0, "reads: " + std::to_string(r.reads.wrong) +
                                            " answers failed the response checks");
        for (const auto* shape : {&r.reads.point_us, &r.reads.batch_us, &r.reads.topk_us}) {
            gates.check(!shape->empty(), "reads: a query shape has no latency samples");
        }
        if (trace_) {
            r.ledger.observe([&] { harvest_service(r); });
        }
        for (int i = 0; i < kRecoveries; ++i) {
            recover(r, gates);
        }
        r.ledger.finish();
    }

    void set_trace(bool on) { trace_ = on; }

private:
    /// Construction + initialize (DD + IA): the time to the first answer.
    /// The serve workload attaches its service first, so its first
    /// publication is part of the answer.
    double setup(Round& r) {
        const auto t0 = Clock::now();
        r.ledger.charge(kIa, [&] {
            engine_ = std::make_unique<AnytimeEngine>(host_, engine_config(opt_.seed));
        });
        if (opt_.workload == "serve") {
            attach_service(r);
        }
        r.init_s = r.ledger.charge(kIa, [&] { engine_->initialize(); });
        return seconds_since(t0);
    }

    /// Reader threads are the benchmark's load, not driver work: starting
    /// and stopping them is kept out of the driver's busy time.
    std::unique_ptr<ReaderPool> start_readers(Round& r, std::size_t count) {
        std::unique_ptr<ReaderPool> readers;
        r.ledger.observe([&] {
            readers = std::make_unique<ReaderPool>(*service_, sizes_.n, count, opt_.seed);
        });
        return readers;
    }

    void stop_readers(Round& r, ReaderPool& readers) {
        r.ledger.observe([&] {
            r.read_window_s = readers.stop();
            merge_reads(r.reads, readers.logs());
        });
    }

    void attach_service(Round& r) {
        r.ledger.charge(kServe, [&] { service_ = std::make_unique<QueryService>(*engine_); });
        if (trace_) {
            // Same publication the service's own hook performs, timed.
            QueryService* service = service_.get();
            Ledger* ledger = &r.ledger;
            engine_->set_boundary_hook([service, ledger](AnytimeEngine&) {
                const auto t0 = Clock::now();
                service->publish();
                ledger->publish += seconds_since(t0);
            });
        }
    }

    void harvest_service(Round& r) {
        const MetricsRegistry m = service_->metrics_copy();
        for (const MetricSpan& span : m.spans()) {
            if (span.name == "serve.publish") {
                r.publish_ms.push_back((span.t_end - span.t_begin) * 1e3);
            }
        }
        r.publication = service_->publication_stats();
        r.topk_patched = service_->topk_patched();
        r.topk_rebuilt = service_->topk_rebuilt();
    }

    void run_grow(Round& r) {
        AnytimeEngine& engine = *engine_;
        RoundRobinPS round_robin;
        CutEdgePS cut_edge;
        RepartitionS repartition;
        // Indexed by Strategy.
        const std::array<VertexAdditionStrategy*, 3> strategies{&round_robin, &cut_edge,
                                                                &repartition};
        const std::array<std::vector<double>*, 3> apply_ms{&r.apply_rr_ms, &r.apply_ce_ms,
                                                           &r.apply_rs_ms};
        const auto phase0 = Clock::now();
        for (const GrowStep& step : grow_) {
            std::size_t cut_before = 0;
            if (trace_) {
                r.ledger.observe([&] { cut_before = engine.current_cut_edges(); });
            }
            const auto t0 = Clock::now();
            const auto k = static_cast<std::size_t>(step.strategy);
            const double apply = r.ledger.charge(
                kAdd, [&] { engine.apply_addition(step.batch, *strategies[k]); });
            const auto t1 = Clock::now();
            settle(engine, r.ledger, kRc, &r.step_ms);
            r.update_ms.push_back(seconds_since(t0) * 1e3);
            r.reconverge_ms.push_back(seconds_since(t1) * 1e3);
            apply_ms[k]->push_back(apply * 1e3);
            r.changes += step.batch.num_new + step.batch.edges.size();
            if (trace_) {
                r.ledger.observe([&] {
                    const std::size_t cut_after = engine.current_cut_edges();
                    r.new_cut_edges += cut_after > cut_before ? cut_after - cut_before : 0;
                });
            }
        }
        r.update_phase_s = seconds_since(phase0);
        r.updates = grow_.size();
    }

    /// Full distance matrix, row-major n x n (traced churn only).
    std::vector<Weight> matrix() const {
        const std::size_t n = engine_->num_vertices();
        std::vector<Weight> m(n * n, kInfinity);
        engine_->visit_rows([&](VertexId v, std::span<const Weight> row) {
            std::copy(row.begin(), row.end(), m.begin() + static_cast<std::ptrdiff_t>(v * n));
        });
        return m;
    }

    void run_churn(Round& r) {
        AnytimeEngine& engine = *engine_;
        RoundRobinPS round_robin;
        const auto phase0 = Clock::now();
        for (const ChurnStep& step : churn_) {
            // Traced: remember the pre-deletion matrix, find the entries the
            // cascade reset, and after reconvergence count those that came
            // back to their old value (invalidation that bought nothing).
            std::vector<Weight> before;
            std::vector<std::size_t> reset;
            std::size_t n_before = 0;
            if (trace_) {
                r.ledger.observe([&] {
                    before = matrix();
                    n_before = engine.num_vertices();
                });
            }
            const auto t0 = Clock::now();
            ShrinkReport shrink;
            const double del =
                r.ledger.charge(kDelete, [&] { shrink = engine.apply_deletion(step.shrink); });
            if (trace_) {
                r.ledger.observe([&] {
                    const std::vector<Weight> after = matrix();
                    for (std::size_t i = 0; i < after.size(); ++i) {
                        if (std::isinf(after[i]) && std::isfinite(before[i])) {
                            reset.push_back(i);
                        }
                    }
                });
            }
            r.apply_rr_ms.push_back(
                r.ledger.charge(kAdd, [&] { engine.apply_addition(step.add, round_robin); }) *
                1e3);
            if (step.migrate_pick >= 0) {
                const ShardOwnership& own = engine.shard_ownership();
                const auto shard = static_cast<ShardId>(
                    static_cast<std::uint64_t>(step.migrate_pick) % own.num_shards());
                const RankId from = own.rank_of(shard);
                const RankId to = static_cast<RankId>(
                    (from + 1 + static_cast<std::uint64_t>(step.migrate_pick) %
                                    (engine.num_ranks() - 1)) %
                    engine.num_ranks());
                const ShardMove move{shard, from, to};
                r.migrate_ms.push_back(
                    r.ledger.charge(kMigrate, [&] {
                        engine.migrate_shards(std::span<const ShardMove>(&move, 1));
                    }) * 1e3);
            }
            const auto t1 = Clock::now();
            settle(engine, r.ledger, kRc, &r.step_ms);
            r.update_ms.push_back(seconds_since(t0) * 1e3);
            r.reconverge_ms.push_back(seconds_since(t1) * 1e3);
            r.delete_apply_ms.push_back(del * 1e3);
            r.seed_suspects += shrink.seed_suspects;
            r.invalidated += shrink.invalidated_entries;
            r.cascade_rounds += shrink.cascade_rounds;
            r.changes += changes_of(step);
            if (trace_) {
                r.ledger.observe([&] {
                    engine.visit_rows([&](VertexId v, std::span<const Weight> row) {
                        if (v >= n_before) {
                            return;
                        }
                        const auto lo = std::lower_bound(reset.begin(), reset.end(),
                                                         std::size_t{v} * n_before);
                        for (auto it = lo; it != reset.end() && *it / n_before == v; ++it) {
                            const std::size_t col = *it % n_before;
                            ++r.invalidated_seen;
                            r.wasted += close_enough(row[col], before[*it]) ? 1 : 0;
                        }
                    });
                });
            }
        }
        r.update_phase_s = seconds_since(phase0);
        r.migrated_rows = engine.report().migrated_rows;
        r.updates = churn_.size();
    }

    void run_serve(Round& r, Gates& gates) {
        AnytimeEngine& engine = *engine_;
        RoundRobinPS round_robin;
        const auto readers = start_readers(r, sizes_.readers);
        const auto cadence = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(sizes_.cadence_s));
        const auto phase0 = Clock::now();
        for (std::size_t b = 0; b < serve_.size(); ++b) {
            // Open loop: batch b is due at phase0 + b * cadence whether or
            // not the previous one has settled; latency counts from the due
            // time, so a stall shows up in the batches queued behind it.
            const auto due = phase0 + cadence * static_cast<std::int64_t>(b);
            r.ledger.wait_until(due);
            r.lag_ms.push_back(seconds_since(due) * 1e3);
            r.apply_rr_ms.push_back(
                r.ledger.charge(kAdd, [&] { engine.apply_addition(serve_[b], round_robin); }) *
                1e3);
            const auto t1 = Clock::now();
            settle(engine, r.ledger, kRc, &r.step_ms);
            r.update_ms.push_back(seconds_since(due) * 1e3);
            r.reconverge_ms.push_back(seconds_since(t1) * 1e3);
            r.changes += serve_[b].num_new + serve_[b].edges.size();
        }
        r.update_phase_s = seconds_since(phase0);
        stop_readers(r, *readers);
        r.updates = serve_.size();
        r.ledger.observe([&] {
            gates.check(final_snapshot_matches(),
                        "serve: final quiescent snapshot differs from engine.closeness()");
        });
    }

    /// The last published snapshot of a quiescent engine must carry exactly
    /// the engine's own closeness.
    bool final_snapshot_matches() const {
        const auto snapshot = service_->snapshot();
        if (snapshot == nullptr || !snapshot->quiescent) {
            return false;
        }
        const ClosenessScores want = engine_->closeness();
        if (snapshot->scores.size() != want.closeness.size()) {
            return false;
        }
        for (std::size_t v = 0; v < want.closeness.size(); ++v) {
            if (snapshot->scores.closeness(v) != want.closeness[v] ||
                snapshot->scores.reachable(v) != want.reachable[v]) {
                return false;
            }
        }
        return true;
    }

    /// save_checkpoint + load_checkpoint + the restored engine's resettle.
    void recover(Round& r, Gates& gates) {
        ClosenessScores want;
        r.ledger.observe([&] { want = engine_->closeness(); });
        std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
        r.save_s.push_back(
            r.ledger.charge(kCheckpoint, [&] { engine_->save_checkpoint(stream); }));
        r.checkpoint_bytes = static_cast<std::size_t>(stream.tellp());
        std::unique_ptr<AnytimeEngine> restored;
        r.load_s.push_back(r.ledger.charge(kCheckpoint, [&] {
            restored = std::make_unique<AnytimeEngine>(
                AnytimeEngine::load_checkpoint(stream, engine_config(opt_.seed)));
        }));
        r.ledger.observe([&] { stream = std::stringstream(); });
        const auto t0 = Clock::now();
        settle(*restored, r.ledger, kCheckpoint);
        r.resettle_s.push_back(seconds_since(t0));
        r.recover_s.push_back(r.save_s.back() + r.load_s.back() + r.resettle_s.back());
        r.ledger.observe([&] {
            gates.check(restored->quiescent() && same_closeness(restored->closeness(), want),
                        "recover: restored closeness differs from the saved engine");
            restored.reset();
        });
    }

    const Options& opt_;
    const Sizes& sizes_;
    DynamicGraph host_;
    std::vector<GrowStep> grow_;
    std::vector<ChurnStep> churn_;
    std::vector<GrowthBatch> serve_;
    std::unique_ptr<AnytimeEngine> engine_;
    std::unique_ptr<QueryService> service_;
    bool trace_{false};
};

// ---- RC phase replay (traced) --------------------------------------------------

struct Replay {
    double post_s{0};
    double exchange_s{0};
    double ingest_s{0};
    double propagate_s{0};
    double ops{0};
    std::size_t steps{0};
    /// Entries that strictly decreased between consecutive boundaries.
    std::size_t improved{0};
};

/// Rebuild the engine's post-IA rank state from its own partition and run
/// the converge phase kernel by kernel, exactly as the engine's synchronous
/// rc_step sequences them, timing each phase. Its op total must equal the
/// engine's; otherwise the split is not of the same work.
Replay replay_converge(const DynamicGraph& g, const std::vector<RankId>& owners,
                       const EngineConfig& config) {
    const std::size_t n = g.num_vertices();
    const std::uint32_t ranks = config.num_ranks;
    const ShardOwnership ownership =
        ShardOwnership::from_partition(owners, ranks, config.shards_per_rank);
    std::vector<LocalSubgraph> sgs;
    std::vector<DistanceStore> stores;
    for (RankId r = 0; r < ranks; ++r) {
        sgs.emplace_back(r, ownership);
        stores.emplace_back(n);
        stores[r].set_simd_enabled(config.rc_simd);
        for (const VertexId v : sgs[r].local_vertices()) {
            stores[r].add_row(v);
        }
    }
    for (const Edge& e : g.edges()) {
        const RankId ru = ownership.owner(e.u);
        const RankId rv = ownership.owner(e.v);
        sgs[ru].add_local_edge(e.u, e.v, e.weight);
        if (rv != ru) {
            sgs[rv].add_local_edge(e.u, e.v, e.weight);
        }
    }
    ThreadPool pool(config.ia_threads);
    for (RankId r = 0; r < ranks; ++r) {
        ia_dijkstra_all(sgs[r], stores[r], pool);
    }
    Cluster cluster(ranks, config.logp, config.schedule, config.price_model);
    const std::size_t window = config.rc_ingest_window_bytes != 0
                                   ? config.rc_ingest_window_bytes
                                   : adaptive_rc_ingest_window_bytes(1);
    const auto snapshot_rows = [&] {
        std::vector<std::vector<Weight>> rows;
        for (RankId r = 0; r < ranks; ++r) {
            for (LocalId l = 0; l < stores[r].num_rows(); ++l) {
                const auto row = stores[r].row(l);
                rows.emplace_back(row.begin(), row.end());
            }
        }
        return rows;
    };
    std::vector<std::vector<Weight>> previous = snapshot_rows();
    const auto quiescent = [&] {
        if (cluster.has_pending_messages()) {
            return false;
        }
        return std::none_of(stores.begin(), stores.end(), [](const DistanceStore& s) {
            return s.any_send_pending() || s.any_prop_pending();
        });
    };

    Replay replay;
    while (!quiescent()) {
        auto t0 = Clock::now();
        for (RankId r = 0; r < ranks; ++r) {
            replay.ops += rc_post_boundary_updates(sgs[r], stores[r], cluster,
                                                   config.wire_format);
        }
        replay.post_s += seconds_since(t0);
        t0 = Clock::now();
        cluster.exchange();
        replay.exchange_s += seconds_since(t0);
        for (RankId r = 0; r < ranks; ++r) {
            t0 = Clock::now();
            const auto inbox = cluster.receive(r);
            replay.ops += rc_ingest_updates(sgs[r], stores[r], inbox, config.wire_format,
                                            &pool, kRcIngestParallelGrain, window);
            replay.ingest_s += seconds_since(t0);
            t0 = Clock::now();
            replay.ops += rc_propagate_local(sgs[r], stores[r], &pool,
                                             kRcPropagateParallelGrain, nullptr,
                                             kRcPropagateTileCols, {},
                                             config.refine_budget_ops);
            replay.propagate_s += seconds_since(t0);
        }
        cluster.barrier();
        ++replay.steps;
        std::vector<std::vector<Weight>> current = snapshot_rows();
        for (std::size_t i = 0; i < current.size(); ++i) {
            for (std::size_t c = 0; c < current[i].size(); ++c) {
                replay.improved += current[i][c] < previous[i][c] ? 1 : 0;
            }
        }
        previous = std::move(current);
    }
    return replay;
}

// ---- report --------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics[i].name.c_str(),
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                      metrics[i].unit.c_str());
        out += buf;
    }
    return out + "}";
}

template <class F>
double median_of(const std::vector<Round>& rounds, F&& f) {
    std::vector<double> values;
    for (const Round& r : rounds) {
        values.push_back(f(r));
    }
    return median(values);
}

std::vector<double> pooled(const std::vector<Round>& rounds,
                           const std::vector<double> Round::*field) {
    std::vector<double> all;
    for (const Round& r : rounds) {
        all.insert(all.end(), (r.*field).begin(), (r.*field).end());
    }
    return all;
}

std::vector<double> query_samples(const ReaderLog& log) {
    std::vector<double> all = log.point_us;
    all.insert(all.end(), log.batch_us.begin(), log.batch_us.end());
    all.insert(all.end(), log.topk_us.begin(), log.topk_us.end());
    return all;
}

double query_fail_frac(const ReaderLog& log) {
    return log.attempted == 0
               ? 1.0
               : static_cast<double>(log.shed + log.unavailable + log.wrong) /
                     static_cast<double>(log.attempted);
}

/// The end-to-end metrics of a set of rounds (set-up and converge samples
/// given apart, because a run may start engines more often than it runs
/// rounds).
std::vector<Metric> end_to_end(const std::vector<Round>& rounds,
                               const std::vector<double>& setups,
                               const std::vector<double>& converges) {
    ReaderLog reads;
    for (const Round& r : rounds) {
        merge_reads(reads, {r.reads});
    }
    const std::vector<double> queries = query_samples(reads);
    return {
        {"setup_s", median(setups), "s"},
        {"converge_s", median(converges), "s"},
        {"update_p50_ms", median(pooled(rounds, &Round::update_ms)), "ms"},
        {"changes_per_s",
         median_of(rounds,
                   [](const Round& r) {
                       return static_cast<double>(r.changes) / r.update_phase_s;
                   }),
         "1/s"},
        {"recover_s", median(pooled(rounds, &Round::recover_s)), "s"},
        {"sim_s", rounds.front().sim_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"query_per_s",
         median_of(rounds,
                   [](const Round& r) {
                       return static_cast<double>(r.reads.ok) / r.read_window_s;
                   }),
         "1/s"},
        {"query_p50_us", percentile(queries, 0.50), "us"},
        {"query_p99_us", percentile(queries, 0.99), "us"},
        {"query_fail_frac", query_fail_frac(reads), "ratio"},
    };
}

std::vector<Metric> per_layer(const std::string& workload, const Round& t,
                              double partition_s, const Replay& replay,
                              double plain_elapsed) {
    const Ledger& l = t.ledger;
    const double busy = l.busy();
    const double unattributed = busy - l.attributed();
    const auto ms_median = [](const std::vector<double>& v) { return median(v); };
    const bool churn = workload == "churn";
    const double n = static_cast<double>(t.final_n);
    return {
        {"partition.wall_s", partition_s, "s"},
        {"partition.cut_edges", static_cast<double>(t.initial_cut_edges), "count"},
        {"init.wall_s", t.init_s, "s"},
        {"ia.wall_s", t.init_s - partition_s, "s"},
        {"ia.ops", t.ia_ops, "ops"},
        {"rc.steps", static_cast<double>(t.report.rc_steps), "count"},
        {"rc.step_ms.p50", ms_median(t.step_ms), "ms"},
        {"rc.ops", t.report.rc_ops, "ops"},
        {"rc.bytes", static_cast<double>(t.cluster.total_bytes), "bytes"},
        {"rc.messages", static_cast<double>(t.cluster.total_messages), "count"},
        {"rc.post_s", replay.post_s, "s"},
        {"rc.exchange_s", replay.exchange_s, "s"},
        {"rc.ingest_s", replay.ingest_s, "s"},
        {"rc.propagate_s", replay.propagate_s, "s"},
        {"rc.useful_frac", replay.ops > 0 ? static_cast<double>(replay.improved) / replay.ops : 0,
         "ratio"},
        {"add.roundrobin.apply_ms", ms_median(t.apply_rr_ms), "ms"},
        {"add.cutedge.apply_ms", ms_median(t.apply_ce_ms), "ms"},
        {"add.repartition.apply_ms", ms_median(t.apply_rs_ms), "ms"},
        {"add.reconverge_ms.p50", churn ? 0.0 : ms_median(t.reconverge_ms), "ms"},
        {"add.new_cut_edges", static_cast<double>(t.new_cut_edges), "count"},
        {"delete.apply_ms.p50", ms_median(t.delete_apply_ms), "ms"},
        {"delete.reconverge_ms.p50", churn ? ms_median(t.reconverge_ms) : 0.0, "ms"},
        {"delete.seed_suspects", static_cast<double>(t.seed_suspects), "count"},
        {"delete.invalidated", static_cast<double>(t.invalidated), "count"},
        {"delete.cascade_rounds", static_cast<double>(t.cascade_rounds), "count"},
        {"delete.wasted_frac",
         t.invalidated_seen > 0
             ? static_cast<double>(t.wasted) / static_cast<double>(t.invalidated_seen)
             : 0.0,
         "ratio"},
        {"migrate.apply_ms", ms_median(t.migrate_ms), "ms"},
        {"migrate.rows", static_cast<double>(t.migrated_rows), "count"},
        {"checkpoint.save_s", median(t.save_s), "s"},
        {"checkpoint.load_s", median(t.load_s), "s"},
        {"checkpoint.resettle_s", median(t.resettle_s), "s"},
        {"checkpoint.bytes", static_cast<double>(t.checkpoint_bytes), "bytes"},
        {"serve.publish_ms.p50", percentile(t.publish_ms, 0.50), "ms"},
        {"serve.publish_ms.p99", percentile(t.publish_ms, 0.99), "ms"},
        {"serve.rows_scanned", static_cast<double>(t.publication.rows_scanned), "count"},
        {"serve.published_bytes", static_cast<double>(t.publication.published_bytes), "bytes"},
        {"serve.delta_publications", static_cast<double>(t.publication.delta_publications),
         "count"},
        {"serve.full_publications", static_cast<double>(t.publication.full_publications),
         "count"},
        {"serve.topk_patched", static_cast<double>(t.topk_patched), "count"},
        {"serve.topk_rebuilt", static_cast<double>(t.topk_rebuilt), "count"},
        {"serve.point_us.p50", percentile(t.reads.point_us, 0.50), "us"},
        {"serve.point_us.p99", percentile(t.reads.point_us, 0.99), "us"},
        {"serve.batch_us.p50", percentile(t.reads.batch_us, 0.50), "us"},
        {"serve.batch_us.p99", percentile(t.reads.batch_us, 0.99), "us"},
        {"serve.topk_us.p50", percentile(t.reads.topk_us, 0.50), "us"},
        {"serve.topk_us.p99", percentile(t.reads.topk_us, 0.99), "us"},
        {"serve.lag_ms.max",
         t.lag_ms.empty() ? 0.0 : *std::max_element(t.lag_ms.begin(), t.lag_ms.end()), "ms"},
        {"query_fail_frac", query_fail_frac(t.reads), "ratio"},
        {"mem.store_bytes", n * n * static_cast<double>(sizeof(Weight)), "bytes"},
        {"layer.ia_s", l.wall[kIa] - partition_s, "s"},
        {"layer.rc_s", l.wall[kRc], "s"},
        {"layer.add_s", l.wall[kAdd], "s"},
        {"layer.delete_s", l.wall[kDelete], "s"},
        {"layer.migrate_s", l.wall[kMigrate], "s"},
        {"layer.checkpoint_s", l.wall[kCheckpoint], "s"},
        {"layer.serve_s", l.wall[kServe], "s"},
        {"unattributed_s", unattributed, "s"},
        {"driver.busy_s", busy, "s"},
        {"attributed_frac", busy > 0 ? l.attributed() / busy : 0.0, "ratio"},
        {"trace.overhead_frac", (busy + l.observer - plain_elapsed) / plain_elapsed, "ratio"},
    };
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);
    const Sizes sizes = sizes_for(opt);
    Workload workload(opt, sizes);
    Gates gates;
    const auto start = Clock::now();

    std::vector<Round> rounds;
    std::vector<double> setups;
    std::vector<double> converges;
    const auto run_round = [&](bool traced) {
        workload.set_trace(traced);
        rounds.emplace_back();
        workload.run(rounds.back(), gates);
        workload.release();
        setups.push_back(rounds.back().setup_s);
        converges.push_back(rounds.back().converge_s);
    };
    run_round(false);
    if (opt.trace) {
        run_round(true);
    } else {
        // Start another round only if it should end within --seconds (the
        // first, cold round makes the estimate conservative).
        while (seconds_since(start) * static_cast<double>(rounds.size() + 1) /
                   static_cast<double>(rounds.size()) <=
               opt.seconds) {
            run_round(false);
        }
        // Set-up and converge are short next to a round, and a run holds
        // few rounds: sample them on extra engines.
        while (setups.size() < kMinStartSamples) {
            Round extra;
            workload.start(extra);
            workload.release();
            setups.push_back(extra.setup_s);
            converges.push_back(extra.converge_s);
        }
    }
    for (const Round& r : rounds) {
        gates.check(r.sim_s == rounds.front().sim_s,
                    "sim_s differs between rounds of one seed");
    }

    std::vector<Metric> e2e_plain;
    std::vector<Metric> e2e_traced;
    std::vector<Metric> layers;
    if (opt.trace) {
        const Round& plain = rounds.front();
        const Round& traced = rounds.back();
        e2e_plain = end_to_end({plain}, {plain.setup_s}, {plain.converge_s});
        e2e_traced = end_to_end({traced}, {traced.setup_s}, {traced.converge_s});
        // The DD phase alone: the engine's partitioner call, same graph,
        // same forked seed, timed outside the engine.
        const EngineConfig config = engine_config(opt.seed);
        Rng engine_rng(config.seed);
        Rng partition_rng = engine_rng.fork();
        const auto p0 = Clock::now();
        const Partitioning partition = multilevel_partition(
            workload.host(), config.num_ranks, partition_rng, config.partition);
        const double partition_s = seconds_since(p0);
        gates.check(partition.assignment == traced.initial_owners,
                    "partition: separate multilevel_partition call differs from the "
                    "engine's DD result");
        const Replay replay = replay_converge(workload.host(), traced.initial_owners, config);
        gates.check(replay.ops == traced.converge_rc_ops &&
                        replay.steps == traced.converge_steps,
                    "rc replay: op count or step count differs from the engine's "
                    "converge phase");
        layers = per_layer(opt.workload, traced, partition_s, replay,
                           plain.ledger.busy() + plain.ledger.observer);
        const double frac = traced.ledger.attributed() / traced.ledger.busy();
        gates.check(frac >= 0.95, "attribution: layers cover only " +
                                      std::to_string(frac * 100) +
                                      "% of the traced driver wall time");
    } else {
        e2e_plain = end_to_end(rounds, setups, converges);
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = gates.failures.size();
    for (const Round& r : rounds) {
        attempted += r.updates + r.reads.attempted + kRecoveries;
        failed += r.reads.shed + r.reads.unavailable + r.reads.wrong;
    }

    // Per-round samples behind the medians, for judging in-run spread.
    std::string samples = "{";
    const auto add_samples = [&](const char* name, const std::vector<double>& values) {
        samples += std::string(samples.size() > 1 ? ", " : "") + "\"" + name + "\": [";
        for (std::size_t i = 0; i < values.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ", ", values[i]);
            samples += buf;
        }
        samples += "]";
    };
    const auto per_round = [&](auto&& f) {
        std::vector<double> values;
        for (const Round& r : rounds) {
            values.push_back(f(r));
        }
        return values;
    };
    add_samples("setup_s", setups);
    add_samples("converge_s", converges);
    add_samples("update_p50_ms", per_round([](const Round& r) { return median(r.update_ms); }));
    add_samples("recover_s", pooled(rounds, &Round::recover_s));
    samples += "}";

    std::string gate_list = "[";
    for (std::size_t i = 0; i < gates.failures.size(); ++i) {
        gate_list += (i == 0 ? "\"" : ", \"") + json_escape(gates.failures[i]) + "\"";
    }
    gate_list += "]";
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    std::printf(
        "{\"workload\": \"%s\", \"seed\": %llu, \"scale\": \"%s\", \"rounds\": %zu, "
        "\"setups\": %zu, \"gates\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"build\": {\"ndebug\": %s, \"compiler\": \"%s\", "
        "\"hardware_concurrency\": %u}, \"end_to_end\": %s, \"traced_end_to_end\": %s, "
        "\"per_layer\": %s, \"samples\": %s}\n",
        opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
        opt.tiny ? "tiny" : "full", rounds.size(), setups.size(), gate_list.c_str(),
        static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
        ndebug ? "true" : "false", json_escape(__VERSION__).c_str(),
        std::thread::hardware_concurrency(), metrics_json(e2e_plain).c_str(),
        metrics_json(e2e_traced).c_str(), metrics_json(layers).c_str(), samples.c_str());
    return 0;
}
