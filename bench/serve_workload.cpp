// Serve-layer workload driver: concurrent point / batch / top-k closeness
// queries against a QueryService while the driver thread keeps the engine
// busy — RC steps with vertex-addition batches injected mid-convergence, the
// exact situation the anytime serving layer exists for.
//
// Three measurements run back to back:
//   * publication reduction — the engine schedule served with O(changed)
//     delta publication into sharded read planes, every publication
//     compared bit-for-bit (scores, reachable, changed list, frac_unknown,
//     top-k) against a whole-snapshot rebuild of the same boundary; the
//     delta path must cut published bytes by at least 50% against that
//     rebuild chain on this churny schedule. Both checks gate the run: any
//     divergence or a reduction below the bar fails the bench BEFORE the
//     JSON report is written.
//   * closed loop — every reader fires its next query the moment the previous
//     one returns (peak throughput / best-case latency); the default budget
//     is ten million queries so the multi-tenant serve path is measured at
//     production-like volume, not a few warm-cache microseconds.
//   * open loop — readers fire on a fixed arrival schedule regardless of
//     completion (latency at a controlled offered rate).
//
// Readers are spread over five tenants (default + four registered ones, one
// of them with a zero pending budget so its waiting queries always shed);
// a slice of the queries uses WaitForNextStep against those budgets, so
// per-tenant admission control is exercised, not just the stale fast path.
//
// The report (--out, default BENCH_serve.json, schema v3) carries per-shape
// latency percentiles, global and per-tenant staleness distributions, shed /
// SLO-miss counts per tenant, publication-path statistics (delta vs full,
// rows scanned, published bytes), the per-shard top-k counters (planes
// carried over as `topk_patched`, planes re-selected as `topk_rebuilt`),
// the host's hardware concurrency, the service's own serve.* metrics
// registry (histograms, counters, and a per-name span summary instead of
// the raw serve.publish spans), and the publication-overhead check (bare vs
// idle-service simulated clocks must agree — snapshot building is
// observer-only).
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"
#include "serve/service.hpp"

namespace aa {
namespace {

struct BenchOptions {
    std::size_t vertices{1200};
    std::uint32_t ranks{8};
    std::size_t readers{6};
    std::size_t batches{3};
    std::size_t batch_size{40};
    std::size_t steps_between{2};
    std::size_t topk{10};
    std::size_t max_pending{2};
    /// Offered rate for the open-loop phase, queries/second across all
    /// readers.
    double open_qps{50000};
    /// The closed loop keeps the service open until this many queries have
    /// completed (the engine schedule itself finishes much earlier).
    std::size_t min_queries{10000000};
    /// Query budget of the open-loop phase (its duration is therefore
    /// roughly open_queries / open_qps seconds).
    std::size_t open_queries{250000};
    std::uint64_t seed{42};
    std::string out{"BENCH_serve.json"};
};

BenchOptions parse(int argc, char** argv) {
    BenchOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--n") {
            opt.vertices = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--ranks") {
            opt.ranks = static_cast<std::uint32_t>(
                std::strtoul(next().c_str(), nullptr, 10));
        } else if (flag == "--readers") {
            opt.readers = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--batches") {
            opt.batches = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--batch-size") {
            opt.batch_size = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--steps-between") {
            opt.steps_between = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--topk") {
            opt.topk = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--max-pending") {
            opt.max_pending = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--open-qps") {
            opt.open_qps = std::strtod(next().c_str(), nullptr);
        } else if (flag == "--min-queries") {
            opt.min_queries = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--open-queries") {
            opt.open_queries = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (flag == "--out") {
            opt.out = next();
        } else {
            std::fprintf(
                stderr,
                "usage: serve_workload [--n N] [--ranks P] [--readers R] "
                "[--batches B] [--batch-size K] [--steps-between S] "
                "[--topk K] [--max-pending Q] [--open-qps RATE] "
                "[--min-queries N] [--open-queries N] [--seed S] "
                "[--out PATH]\n");
            std::exit(2);
        }
    }
    if (opt.vertices == 0 || opt.ranks == 0 || opt.readers == 0 ||
        opt.open_qps <= 0) {
        std::fprintf(stderr, "--n, --ranks, --readers, --open-qps must be positive\n");
        std::exit(2);
    }
    return opt;
}

EngineConfig engine_config(const BenchOptions& opt) {
    EngineConfig config;
    config.num_ranks = opt.ranks;
    config.ia_threads = 1;
    config.seed = opt.seed;
    return config;
}

/// The fixed engine schedule every run of this bench executes: a few RC
/// steps, then a vertex-addition batch, repeated, then convergence.
void drive_engine(AnytimeEngine& engine, const BenchOptions& opt) {
    Rng batch_rng(opt.seed ^ 0x9E3779B97F4A7C15ull);
    RoundRobinPS strategy;
    for (std::size_t b = 0; b < opt.batches; ++b) {
        engine.run_rc_steps(opt.steps_between);
        GrowthConfig gc;
        gc.num_new = opt.batch_size;
        const auto batch = grow_batch(engine.num_vertices(), gc, batch_rng);
        engine.apply_addition(batch, strategy);
    }
    engine.run_to_quiescence();
}

/// The bench's tenant population: the default tenant plus four registered
/// ones with distinct admission budgets and freshness SLOs. `throttled` has
/// a zero pending budget — every one of its waiting queries is shed, which
/// pins the per-tenant isolation property at bench scale.
struct TenantSpec {
    const char* name;
    TenantConfig config;
};

std::vector<TenantSpec> tenant_specs() {
    return {
        {"interactive", {4, 0.05, 2.0}},
        {"dashboard", {16, 0.25, 1.0}},
        {"batch", {64, std::numeric_limits<double>::infinity(), 0.5}},
        {"throttled", {0, 0.02, 1.0}},
    };
}

struct ReaderStats {
    std::vector<double> lat_point;
    std::vector<double> lat_batch;
    std::vector<double> lat_topk;
    std::vector<double> stale_wall;
    std::vector<double> stale_versions;
    std::uint64_t ok{0};
    std::uint64_t shed{0};
    std::uint64_t unavailable{0};

    void merge(ReaderStats&& other) {
        const auto append = [](std::vector<double>& into, std::vector<double>& from) {
            into.insert(into.end(), from.begin(), from.end());
        };
        append(lat_point, other.lat_point);
        append(lat_batch, other.lat_batch);
        append(lat_topk, other.lat_topk);
        append(stale_wall, other.stale_wall);
        append(stale_versions, other.stale_versions);
        ok += other.ok;
        shed += other.shed;
        unavailable += other.unavailable;
    }

    std::uint64_t total() const { return ok + shed + unavailable; }
};

double percentile(std::vector<double>& samples, double p) {
    if (samples.empty()) {
        return 0;
    }
    std::sort(samples.begin(), samples.end());
    const double rank = p * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

struct TenantResult {
    std::string name;
    TenantConfig config;
    ReaderStats stats;        // reader-side counts + sampled staleness
    TenantCounters counters;  // service-side served / shed / slo_misses
};

struct WorkloadResult {
    ReaderStats stats;
    std::vector<TenantResult> tenants;
    std::uint64_t publications{0};
    std::uint64_t shed_counter{0};
    std::size_t topk_patched{0};
    std::size_t topk_rebuilt{0};
    PublicationStats pub_stats;
    double sim_seconds{0};
    double wall_seconds{0};
    std::string metrics_json;
};

/// One full run: fresh engine + service with the five-tenant population,
/// concurrent readers in the requested load mode, the standard engine
/// schedule on the driver thread.
WorkloadResult run_workload(const BenchOptions& opt, bool open_loop) {
    Rng graph_rng(opt.seed);
    AnytimeEngine engine(barabasi_albert(opt.vertices, 2, graph_rng),
                         engine_config(opt));
    engine.initialize();
    ServeConfig sc;
    sc.topk_maintained = opt.topk;
    sc.max_pending = opt.max_pending;
    QueryService service(engine, sc);
    const std::vector<TenantSpec> specs = tenant_specs();
    std::vector<TenantId> tenant_ids{kDefaultTenant};
    for (const TenantSpec& spec : specs) {
        tenant_ids.push_back(service.register_tenant(spec.name, spec.config));
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> completed{0};
    const std::uint64_t budget = open_loop ? opt.open_queries : opt.min_queries;
    // Queries stay within the initial vertex range so every query is valid
    // for every snapshot version; the added vertices show up in top-k.
    const std::size_t query_range = opt.vertices;
    const double interarrival =
        static_cast<double>(opt.readers) / opt.open_qps;

    std::vector<ReaderStats> per_reader(opt.readers);
    std::vector<std::thread> readers;
    readers.reserve(opt.readers);
    for (std::size_t t = 0; t < opt.readers; ++t) {
        readers.emplace_back([&, t] {
            using Clock = std::chrono::steady_clock;
            ReaderStats& stats = per_reader[t];
            const TenantId tenant = tenant_ids[t % tenant_ids.size()];
            Rng rng(opt.seed ^ (0xC0FFEEull + t));
            auto next_fire = Clock::now();
            std::uint64_t i = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                if (open_loop) {
                    std::this_thread::sleep_until(next_fire);
                    next_fire += std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(interarrival));
                }
                const VertexId v =
                    static_cast<VertexId>(rng.uniform(query_range));
                ResponseMeta meta;
                double latency = 0;
                const auto timed = [&](auto&& query) {
                    const auto t0 = Clock::now();
                    auto result = query();
                    latency =
                        std::chrono::duration<double>(Clock::now() - t0).count();
                    meta = result.meta;
                };
                // Mix: mostly stale point reads, some batch and top-k, and
                // every 16th query waits for the next step (the shape that
                // exercises the pending budget and per-tenant shedding).
                std::vector<double>* bucket = nullptr;
                switch (i % 16) {
                    case 3:
                    case 11: {
                        const std::vector<VertexId> vs{
                            v, static_cast<VertexId>((v + 17) % query_range),
                            static_cast<VertexId>((v + 101) % query_range),
                            static_cast<VertexId>((v + 331) % query_range)};
                        timed([&] {
                            return service.batch(vs, FreshnessPolicy::ServeStale,
                                                 tenant);
                        });
                        bucket = &stats.lat_batch;
                        break;
                    }
                    case 7:
                    case 15:
                        timed([&] {
                            return service.topk(opt.topk,
                                                FreshnessPolicy::ServeStale,
                                                tenant);
                        });
                        bucket = &stats.lat_topk;
                        break;
                    case 5:
                        timed([&] {
                            return service.point(
                                v, FreshnessPolicy::WaitForNextStep, tenant);
                        });
                        bucket = &stats.lat_point;
                        break;
                    default:
                        timed([&] {
                            return service.point(v, FreshnessPolicy::ServeStale,
                                                 tenant);
                        });
                        bucket = &stats.lat_point;
                        break;
                }
                ++i;
                // Counters are exact; sample vectors keep every 8th query so
                // a ten-million-query run stays within a few dozen MB.
                const bool sampled = (i & 7) == 0;
                switch (meta.status) {
                    case QueryStatus::Ok:
                        ++stats.ok;
                        if (sampled) {
                            bucket->push_back(latency);
                            stats.stale_wall.push_back(meta.staleness_wall);
                            stats.stale_versions.push_back(
                                static_cast<double>(meta.staleness_versions));
                        }
                        break;
                    case QueryStatus::Shed:
                        ++stats.shed;
                        break;
                    case QueryStatus::Unavailable:
                        ++stats.unavailable;
                        break;
                }
                completed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    const auto wall0 = std::chrono::steady_clock::now();
    drive_engine(engine, opt);
    // The engine schedule may finish before the readers have produced a
    // meaningful sample; keep publishing (out of band, still versioned) until
    // the query budget is met, then close to wake any parked waiter.
    while (completed.load(std::memory_order_relaxed) < budget) {
        service.publish();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true, std::memory_order_relaxed);
    service.close();
    for (auto& thread : readers) {
        thread.join();
    }

    WorkloadResult result;
    result.tenants.resize(tenant_ids.size());
    for (std::size_t id = 0; id < tenant_ids.size(); ++id) {
        result.tenants[id].counters = service.tenant_counters(tenant_ids[id]);
        result.tenants[id].name = result.tenants[id].counters.name;
        result.tenants[id].config = result.tenants[id].counters.config;
    }
    for (std::size_t t = 0; t < per_reader.size(); ++t) {
        ReaderStats copy = per_reader[t];
        result.tenants[t % tenant_ids.size()].stats.merge(std::move(copy));
        result.stats.merge(std::move(per_reader[t]));
    }
    result.publications = service.publications();
    result.shed_counter = service.shed_count();
    result.topk_patched = service.topk_patched();
    result.topk_rebuilt = service.topk_rebuilt();
    result.pub_stats = service.publication_stats();
    result.sim_seconds = engine.sim_seconds();
    result.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall0)
                              .count();
    result.metrics_json = metrics_summary_to_json(service.metrics_copy(), 4);
    return result;
}

/// The same engine schedule with no readers: bare, and with an attached but
/// idle service (every boundary publishes, nobody queries). Their simulated
/// clocks must agree exactly — snapshot building is observer-only.
struct OverheadResult {
    double sim_bare{0};
    double sim_idle{0};
    double wall_bare{0};
    double wall_idle{0};
};

OverheadResult measure_overhead(const BenchOptions& opt) {
    OverheadResult result;
    {
        Rng graph_rng(opt.seed);
        AnytimeEngine engine(barabasi_albert(opt.vertices, 2, graph_rng),
                             engine_config(opt));
        const auto t0 = std::chrono::steady_clock::now();
        engine.initialize();
        drive_engine(engine, opt);
        result.wall_bare = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        result.sim_bare = engine.sim_seconds();
    }
    {
        Rng graph_rng(opt.seed);
        AnytimeEngine engine(barabasi_albert(opt.vertices, 2, graph_rng),
                             engine_config(opt));
        const auto t0 = std::chrono::steady_clock::now();
        engine.initialize();
        QueryService service(engine);
        drive_engine(engine, opt);
        result.wall_idle = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        result.sim_idle = engine.sim_seconds();
    }
    return result;
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Full cross-check of two snapshots that must be bit-indistinguishable:
/// metadata, changed list, every score/reachable pair.
bool snapshots_identical(const ResultSnapshot& a, const ResultSnapshot& b) {
    if (a.version != b.version || a.rc_step != b.rc_step ||
        a.quiescent != b.quiescent ||
        a.total_reachable != b.total_reachable ||
        !same_bits(a.frac_unknown, b.frac_unknown) ||
        a.scores.size() != b.scores.size() || a.changed != b.changed) {
        return false;
    }
    for (std::size_t v = 0; v < a.scores.size(); ++v) {
        if (!same_bits(a.scores.closeness(v), b.scores.closeness(v)) ||
            a.scores.reachable(v) != b.scores.reachable(v)) {
            return false;
        }
    }
    return true;
}

/// Delta publication against a whole-snapshot reference chain: one engine
/// and one service publishing O(changed) deltas into its sharded read
/// planes. At every publication, with the engine idle inside the observer,
/// the same boundary is rebuilt in full by build_snapshot against the
/// previous reference and compared bit-for-bit, and the merged top-k is
/// compared against a full selection. The reference chain, charged by the
/// same account_publication, is the whole-snapshot baseline the work
/// reduction is measured against.
struct ReductionResult {
    PublicationStats delta_stats;
    PublicationStats full_stats;
    bool bit_identical{true};
    std::uint64_t boundaries_compared{0};
};

ReductionResult measure_reduction(const BenchOptions& opt) {
    Rng rng(opt.seed);
    AnytimeEngine engine(barabasi_albert(opt.vertices, 2, rng),
                         engine_config(opt));
    engine.initialize();
    ServeConfig sc;
    sc.topk_maintained = opt.topk;
    sc.enable_metrics = false;
    QueryService service(engine, sc);

    ReductionResult result;
    std::shared_ptr<const ResultSnapshot> reference;
    const auto check = [&](const ResultSnapshot& published) {
        auto rebuilt =
            build_snapshot(engine, published.version, reference.get());
        account_publication(result.full_stats, *rebuilt, reference.get(),
                            false, rebuilt->scores.size());
        const auto top = service.topk(opt.topk, FreshnessPolicy::ServeStale);
        if (!snapshots_identical(published, *rebuilt) ||
            top.meta.version != published.version ||
            top.entries != topk_from_snapshot(*rebuilt, opt.topk)) {
            result.bit_identical = false;
        }
        reference = std::move(rebuilt);
        ++result.boundaries_compared;
    };
    check(*service.snapshot());
    service.set_on_publish(check);

    // Each engine boundary is followed by one out-of-band republication —
    // the serve loop's timer-driven publish (run_workload issues these every
    // millisecond once the schedule drains). That publish is where the two
    // paths diverge hardest: the delta ships only the rows that moved since
    // the boundary (usually none), the full path re-scans and re-materializes
    // all n rows every time.
    Rng batch_rng(opt.seed ^ 0x9E3779B97F4A7C15ull);
    RoundRobinPS strategy;
    for (std::size_t b = 0; b < opt.batches; ++b) {
        for (std::size_t s = 0; s < opt.steps_between; ++s) {
            engine.run_rc_steps(1);
            service.publish();
        }
        GrowthConfig gc;
        gc.num_new = opt.batch_size;
        const auto batch = grow_batch(engine.num_vertices(), gc, batch_rng);
        engine.apply_addition(batch, strategy);
        service.publish();
    }
    while (engine.run_rc_steps(1) > 0) {
        service.publish();
    }
    result.delta_stats = service.publication_stats();
    return result;
}

std::string shape_json(const char* name, std::vector<double>& samples) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"shape\": \"%s\", \"count\": %zu, \"p50\": %.3e, "
                  "\"p90\": %.3e, \"p99\": %.3e, \"max\": %.3e}",
                  name, samples.size(), percentile(samples, 0.50),
                  percentile(samples, 0.90), percentile(samples, 0.99),
                  samples.empty() ? 0.0
                                  : *std::max_element(samples.begin(),
                                                      samples.end()));
    return buf;
}

std::string publication_stats_json(const PublicationStats& s) {
    char buf[384];
    std::snprintf(
        buf, sizeof(buf),
        "{\"publications\": %llu, \"delta\": %llu, \"full\": %llu, "
        "\"changed_rows\": %zu, \"rows_scanned\": %zu, "
        "\"chunks_copied\": %zu, \"chunks_shared\": %zu, "
        "\"published_bytes\": %zu}",
        static_cast<unsigned long long>(s.publications),
        static_cast<unsigned long long>(s.delta_publications),
        static_cast<unsigned long long>(s.full_publications), s.changed_rows,
        s.rows_scanned, s.chunks_copied, s.chunks_shared, s.published_bytes);
    return buf;
}

std::string tenant_json(TenantResult& t) {
    std::string json = "       {\"name\": \"" + t.name + "\", ";
    char buf[384];
    char slo[32];
    if (t.config.freshness_slo == std::numeric_limits<double>::infinity()) {
        std::snprintf(slo, sizeof(slo), "\"inf\"");
    } else {
        std::snprintf(slo, sizeof(slo), "%.4g", t.config.freshness_slo);
    }
    std::snprintf(
        buf, sizeof(buf),
        "\"max_pending\": %zu, \"freshness_slo\": %s, "
        "\"demand_weight\": %.3g,\n        \"ok\": %llu, \"shed\": %llu, "
        "\"unavailable\": %llu, \"served\": %llu, \"slo_misses\": %llu,\n",
        t.config.max_pending, slo, t.config.demand_weight,
        static_cast<unsigned long long>(t.stats.ok),
        static_cast<unsigned long long>(t.stats.shed),
        static_cast<unsigned long long>(t.stats.unavailable),
        static_cast<unsigned long long>(t.counters.served),
        static_cast<unsigned long long>(t.counters.slo_misses));
    json += buf;
    json += "        \"staleness_wall_seconds\": " +
            shape_json("wall", t.stats.stale_wall) + "}";
    return json;
}

std::string workload_json(const char* mode, WorkloadResult& r) {
    std::string json;
    json += "    {\"mode\": \"" + std::string(mode) + "\",\n";
    json += "     \"queries\": {\"ok\": " + std::to_string(r.stats.ok) +
            ", \"shed\": " + std::to_string(r.stats.shed) +
            ", \"unavailable\": " + std::to_string(r.stats.unavailable) + "},\n";
    json += "     \"latency_seconds\": [\n       " +
            shape_json("point", r.stats.lat_point) + ",\n       " +
            shape_json("batch", r.stats.lat_batch) + ",\n       " +
            shape_json("topk", r.stats.lat_topk) + "\n     ],\n";
    json += "     \"staleness\": {\"wall_seconds\": " +
            shape_json("wall", r.stats.stale_wall) +
            ",\n                   \"versions_behind\": " +
            shape_json("versions", r.stats.stale_versions) + "},\n";
    json += "     \"per_tenant\": [\n";
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
        json += tenant_json(r.tenants[i]);
        json += i + 1 < r.tenants.size() ? ",\n" : "\n";
    }
    json += "     ],\n";
    json += "     \"publication\": " + publication_stats_json(r.pub_stats) +
            ",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "     \"publications\": %llu, \"shed_count\": %llu, "
                  "\"topk_patched\": %zu, \"topk_rebuilt\": %zu,\n"
                  "     \"sim_seconds\": %.6f, \"wall_seconds\": %.3f,\n",
                  static_cast<unsigned long long>(r.publications),
                  static_cast<unsigned long long>(r.shed_counter),
                  r.topk_patched, r.topk_rebuilt, r.sim_seconds,
                  r.wall_seconds);
    json += buf;
    json += "     \"serve_metrics\": " + r.metrics_json + "}";
    return json;
}

}  // namespace
}  // namespace aa

int main(int argc, char** argv) {
    using namespace aa;
    const BenchOptions opt = parse(argc, argv);
    std::printf(
        "serve workload: n=%zu ranks=%u readers=%zu batches=%zu x %zu "
        "min-queries=%zu\n",
        opt.vertices, opt.ranks, opt.readers, opt.batches, opt.batch_size,
        opt.min_queries);

    std::printf("-- publication overhead (no readers)...\n");
    const OverheadResult overhead = measure_overhead(opt);
    const double sim_delta =
        overhead.sim_bare > 0
            ? std::abs(overhead.sim_idle - overhead.sim_bare) / overhead.sim_bare
            : 0.0;
    std::printf(
        "   sim seconds bare %.6f / idle-service %.6f (delta %.4f%%)\n"
        "   wall seconds bare %.3f / idle-service %.3f\n",
        overhead.sim_bare, overhead.sim_idle, sim_delta * 100.0,
        overhead.wall_bare, overhead.wall_idle);
    if (sim_delta > 0.05) {
        std::fprintf(stderr,
                     "FAIL: publication changed the simulated clock by more "
                     "than 5%% — snapshots must be observer-only\n");
        return 1;
    }

    // Delta-vs-full gate: the report is only written if the O(changed) path
    // is bit-indistinguishable from whole-snapshot publication AND cuts the
    // published bytes by at least half on this churny schedule.
    std::printf("-- delta vs full publication (bit-identity + reduction)...\n");
    const ReductionResult reduction = measure_reduction(opt);
    const double bytes_reduction =
        reduction.full_stats.published_bytes > 0
            ? 1.0 - static_cast<double>(reduction.delta_stats.published_bytes) /
                        static_cast<double>(reduction.full_stats.published_bytes)
            : 0.0;
    const double rows_reduction =
        reduction.full_stats.rows_scanned > 0
            ? 1.0 - static_cast<double>(reduction.delta_stats.rows_scanned) /
                        static_cast<double>(reduction.full_stats.rows_scanned)
            : 0.0;
    std::printf(
        "   %llu boundaries compared, %llu delta / %llu full publications\n"
        "   published bytes %zu (delta) vs %zu (full): %.1f%% reduction\n"
        "   rows scanned %zu (delta) vs %zu (full): %.1f%% reduction\n",
        static_cast<unsigned long long>(reduction.boundaries_compared),
        static_cast<unsigned long long>(reduction.delta_stats.delta_publications),
        static_cast<unsigned long long>(reduction.full_stats.full_publications),
        reduction.delta_stats.published_bytes,
        reduction.full_stats.published_bytes, bytes_reduction * 100.0,
        reduction.delta_stats.rows_scanned, reduction.full_stats.rows_scanned,
        rows_reduction * 100.0);
    if (!reduction.bit_identical) {
        std::fprintf(stderr,
                     "FAIL: delta-published snapshots diverged from the "
                     "full-snapshot path — results must be bit-identical\n");
        return 1;
    }
    if (reduction.delta_stats.delta_publications == 0) {
        std::fprintf(stderr,
                     "FAIL: the delta path never engaged on the churny "
                     "schedule\n");
        return 1;
    }
    if (bytes_reduction < 0.5) {
        std::fprintf(stderr,
                     "FAIL: published bytes dropped only %.1f%% vs "
                     "whole-snapshot publication (bar: >= 50%%)\n",
                     bytes_reduction * 100.0);
        return 1;
    }

    std::string json;
    json += "{\n  \"bench\": \"serve_workload\",\n  \"schema\": 3,\n";
    json += "  \"config\": {\"n\": " + std::to_string(opt.vertices) +
            ", \"ranks\": " + std::to_string(opt.ranks) +
            ", \"readers\": " + std::to_string(opt.readers) +
            ", \"batches\": " + std::to_string(opt.batches) +
            ", \"batch_size\": " + std::to_string(opt.batch_size) +
            ", \"topk\": " + std::to_string(opt.topk) +
            ", \"max_pending\": " + std::to_string(opt.max_pending) +
            ", \"open_qps\": " + std::to_string(opt.open_qps) +
            ", \"min_queries\": " + std::to_string(opt.min_queries) +
            ", \"open_queries\": " + std::to_string(opt.open_queries) +
            ", \"seed\": " + std::to_string(opt.seed) +
            ",\n             \"host_hardware_concurrency\": " +
            std::to_string(std::thread::hardware_concurrency()) + "},\n";
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"publication_overhead\": {\"sim_seconds_bare\": %.6f, "
                  "\"sim_seconds_idle_service\": %.6f, \"sim_delta_frac\": "
                  "%.6f, \"wall_seconds_bare\": %.3f, "
                  "\"wall_seconds_idle_service\": %.3f},\n",
                  overhead.sim_bare, overhead.sim_idle, sim_delta,
                  overhead.wall_bare, overhead.wall_idle);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"publication_reduction\": {\"boundaries_compared\": %llu, "
                  "\"bit_identical\": true,\n    \"published_bytes_reduction\": "
                  "%.4f, \"rows_scanned_reduction\": %.4f,\n    \"delta\": ",
                  static_cast<unsigned long long>(reduction.boundaries_compared),
                  bytes_reduction, rows_reduction);
    json += buf;
    json += publication_stats_json(reduction.delta_stats);
    json += ",\n    \"full\": " + publication_stats_json(reduction.full_stats) +
            "},\n";
    json += "  \"workloads\": [\n";

    for (const bool open_loop : {false, true}) {
        const char* mode = open_loop ? "open" : "closed";
        std::printf("-- %s-loop workload...\n", mode);
        WorkloadResult result = run_workload(opt, open_loop);
        std::vector<double> p50_copy = result.stats.lat_point;
        std::printf(
            "   %llu ok / %llu shed / %llu unavailable, %llu publications "
            "(%llu delta), point p50 %.2e s, topk patched %zu rebuilt %zu\n",
            static_cast<unsigned long long>(result.stats.ok),
            static_cast<unsigned long long>(result.stats.shed),
            static_cast<unsigned long long>(result.stats.unavailable),
            static_cast<unsigned long long>(result.publications),
            static_cast<unsigned long long>(
                result.pub_stats.delta_publications),
            percentile(p50_copy, 0.50), result.topk_patched,
            result.topk_rebuilt);
        json += workload_json(mode, result);
        json += open_loop ? "\n" : ",\n";
    }
    json += "  ]\n}\n";

    if (!opt.out.empty()) {
        std::FILE* f = std::fopen(opt.out.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open %s\n", opt.out.c_str());
            return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote %s\n", opt.out.c_str());
    }
    return 0;
}
