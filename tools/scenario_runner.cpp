// scenario_runner — scriptable driver for dynamic-analysis experiments.
//
// Executes a plain-text scenario describing a host graph and a timeline of
// dynamic events against the AnytimeEngine, printing a timeline report.
// This is the tool for trying strategy mixes on your own workloads without
// writing C++.
//
//   scenario_runner workload.scn
//   scenario_runner -            # read the scenario from stdin
//
// Scenario grammar (one command per line, '#' comments):
//   graph ba <n> <m>                  Barabasi-Albert host
//   graph er <n> <edges>              Erdos-Renyi host
//   graph file <path>                 SNAP edge-list host
//   ranks <P>      threads <T>        cluster shape (before graph)
//   seed <S>                          RNG seed (before graph)
//   backend seq|threaded              rank execution backend, default threaded (before graph)
//   steps <k>                         run k RC steps
//   add <count> rr|cutedge|repart [communities]   vertex batch
//   edges <count>                     random new edges between old vertices
//   delete <u> <v>                    remove one edge (invalidate/re-settle)
//   delete-vertex <v>                 remove every edge incident to v
//   reweight <u> <v> <w>              set an edge weight (raises allowed)
//   converge                          run RC to quiescence
//   closeness [top]                   print top-k closeness (default 5)
//   telemetry                         print per-step telemetry so far
//   metrics [json|csv] [path]         dump the aa.timeline.v1 block (stdout
//                                     when no path is given)
//   checkpoint <path>                 save engine state (via <path>.tmp + rename)
//   restore <path>                    replace the engine from a checkpoint
//   verify                            check against exact sequential APSP
//   serve-policy stale|next-step|quiescence|bounded-error
//                                     freshness for query/topk
//   tenant <name> [max-pending] [slo] define a tenant (admission limit,
//                                     freshness SLO wall-seconds) and make it
//                                     the issuer of later query/topk commands
//   query <v> [policy]                point closeness query via the serve
//                                     layer (answers from the latest
//                                     published snapshot)
//   topk [k] [policy]                 top-k closeness via the serve layer
//   refine-policy uniform|heat|topk   RC worklist-ordering policy
//   heat <v> [weight]                 inject query heat at a vertex
//   bounds <v>                        print the certified closeness interval
//   shards                            print per-rank shard ownership + load
//   migrate <n>                       plan and apply up to n shard moves
//   auto-migrate on|off [threshold]   planner-driven moves at step boundaries
//   help                              print this command list
//
// query/topk go through the QueryService: they read the versioned snapshot
// published at the last engine boundary rather than touching engine state,
// and report which snapshot version answered. Waiting policies run the
// service in synchronous mode — an unsatisfied query steps the engine inline.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/baseline.hpp"
#include "core/closeness.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "core/telemetry.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "serve/service.hpp"

namespace {

using namespace aa;

const char kHelpText[] =
    "commands (one per line, '#' comments):\n"
    "  ranks <P>      threads <T>        cluster shape (before graph)\n"
    "  seed <S>                          RNG seed (before graph)\n"
    "  backend seq|threaded              rank execution backend, default threaded (before graph)\n"
    "  graph ba <n> <m>                  Barabasi-Albert host\n"
    "  graph er <n> <edges>              Erdos-Renyi host\n"
    "  graph file <path>                 SNAP edge-list host\n"
    "  steps <k>                         run k RC steps\n"
    "  add <count> rr|cutedge|repart [communities]   vertex batch\n"
    "  edges <count>                     random new edges between old vertices\n"
    "  delete <u> <v>                    remove one edge (invalidate/re-settle)\n"
    "  delete-vertex <v>                 remove every edge incident to v\n"
    "  reweight <u> <v> <w>              set an edge weight (raises allowed)\n"
    "  converge                          run RC to quiescence\n"
    "  closeness [top]                   print top-k closeness (engine-side)\n"
    "  telemetry                         print per-step telemetry so far\n"
    "  metrics [json|csv] [path]         dump the aa.timeline.v1 block\n"
    "  checkpoint <path>                 save engine state (via <path>.tmp + rename)\n"
    "  restore <path>                    replace the engine from a checkpoint\n"
    "  verify                            check against exact sequential APSP\n"
    "  serve-policy stale|next-step|quiescence|bounded-error\n"
    "                                    freshness for query/topk\n"
    "  tenant <name> [max-pending] [slo] define a tenant and make it the\n"
    "                                    issuer of later query/topk commands\n"
    "  query <v> [policy]                point query via the serve layer\n"
    "  topk [k] [policy]                 top-k query via the serve layer\n"
    "  refine-policy uniform|heat|topk   RC worklist-ordering policy\n"
    "  heat <v> [weight]                 inject query heat at a vertex\n"
    "  bounds <v>                        print the certified closeness interval\n"
    "  shards                            print per-rank shard ownership + load\n"
    "  migrate <n>                       plan and apply up to n shard moves\n"
    "  auto-migrate on|off [threshold]   planner-driven moves at step boundaries\n"
    "  help                              print this command list\n";

bool parse_policy(const std::string& name, FreshnessPolicy& policy) {
    if (name == "stale") {
        policy = FreshnessPolicy::ServeStale;
    } else if (name == "next-step") {
        policy = FreshnessPolicy::WaitForNextStep;
    } else if (name == "quiescence") {
        policy = FreshnessPolicy::WaitForQuiescence;
    } else if (name == "bounded-error") {
        policy = FreshnessPolicy::BoundedError;
    } else {
        std::fprintf(stderr,
                     "error: unknown freshness policy '%s' (valid: stale, "
                     "next-step, quiescence, bounded-error)\n",
                     name.c_str());
        return false;
    }
    return true;
}

/// Read the next token of `in` as a positive integer into `out`. A missing,
/// zero, negative, out-of-range or otherwise unparsable value prints an
/// error and returns false, leaving `out` untouched.
template <typename T>
bool parse_positive(std::istream& in, const std::string& command, T& out) {
    std::string token;
    in >> token;
    T value{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc{} || ptr != end || value == 0) {
        std::fprintf(stderr, "error: %s needs a positive integer, got '%s'\n",
                     command.c_str(), token.c_str());
        return false;
    }
    out = value;
    return true;
}

/// One scenario-defined tenant. `id` is only valid for the currently
/// attached service (register_tenant ids are per-service); attach_service
/// re-registers every definition and refreshes the ids.
struct TenantDef {
    std::string name;
    TenantConfig config;
    TenantId id{kDefaultTenant};
};

struct Runner {
    EngineConfig config;
    std::uint64_t seed{42};
    std::unique_ptr<AnytimeEngine> engine;
    std::unique_ptr<QueryService> service;
    FreshnessPolicy policy{FreshnessPolicy::ServeStale};
    std::vector<TenantDef> tenant_defs;
    std::string active_tenant_name{"default"};
    TenantId active_tenant{kDefaultTenant};
    DynamicGraph mirror;  // for `verify`
    RoundRobinPS round_robin;
    std::unique_ptr<CutEdgePS> cut_edge;
    RepartitionS repartition;
    Rng workload_rng{1234};
    int exit_code{0};

    Runner() {
        config.num_ranks = 8;
        config.ia_threads = 4;
        // Scenario runs are exploratory, not measured: always collect the
        // phase-span timeline so `metrics` has something to dump.
        config.enable_metrics = true;
    }

    void require_engine(const std::string& command) const {
        if (engine == nullptr) {
            std::fprintf(stderr, "error: '%s' before 'graph ...'\n",
                         command.c_str());
            std::exit(2);
        }
    }

    void start(DynamicGraph graph) {
        config.seed = seed;
        mirror = graph;
        cut_edge = std::make_unique<CutEdgePS>(seed * 31 + 7);
        service.reset();  // must detach from the old engine first
        engine = std::make_unique<AnytimeEngine>(std::move(graph), config);
        engine->initialize();
        attach_service();
        std::printf("[%8.4fs] graph ready: %zu vertices, %zu edges, %u ranks, "
                    "cut %zu\n",
                    engine->sim_seconds(), engine->num_vertices(),
                    mirror.num_edges(), config.num_ranks,
                    engine->current_cut_edges());
    }

    /// Put a QueryService in synchronous mode over the current engine: every
    /// engine boundary publishes a snapshot, and a query whose policy the
    /// current snapshot cannot satisfy advances the engine inline instead of
    /// blocking (scenario_runner is single-threaded).
    void attach_service() {
        ServeConfig sc;
        sc.enable_metrics = false;  // the engine timeline is the record here
        sc.enable_bounds = true;    // bounded-error queries need intervals
        service = std::make_unique<QueryService>(*engine, sc);
        service->set_step_driver(
            [this] { return engine->run_rc_steps(1) > 0; });
        // register_tenant ids belong to one service instance: re-register
        // every scenario-defined tenant and refresh the stored ids.
        for (TenantDef& def : tenant_defs) {
            def.id = service->register_tenant(def.name, def.config);
        }
        active_tenant = tenant_id(active_tenant_name);
    }

    TenantId tenant_id(const std::string& name) const {
        for (const TenantDef& def : tenant_defs) {
            if (def.name == name) {
                return def.id;
            }
        }
        return kDefaultTenant;
    }

    bool handle(const std::string& line) {
        std::istringstream in(line);
        std::string command;
        if (!(in >> command) || command[0] == '#') {
            return true;
        }
        if (command == "ranks") {
            return parse_positive(in, command, config.num_ranks);
        } else if (command == "threads") {
            return parse_positive(in, command, config.ia_threads);
        } else if (command == "seed") {
            in >> seed;
            workload_rng.reseed(seed * 101);
        } else if (command == "backend") {
            std::string backend;
            in >> backend;
            if (!parse_backend_kind(backend, config.backend)) {
                std::fprintf(stderr,
                             "error: unknown backend '%s' (valid: seq, "
                             "threaded)\n",
                             backend.c_str());
                return false;
            }
        } else if (command == "graph") {
            std::string kind;
            in >> kind;
            Rng rng(seed);
            if (kind == "ba") {
                std::size_t n = 500;
                std::size_t m = 3;
                in >> n >> m;
                start(barabasi_albert(n, m, rng));
            } else if (kind == "er") {
                std::size_t n = 500;
                std::size_t edges = 1500;
                in >> n >> edges;
                start(erdos_renyi_gnm(n, edges, rng));
            } else if (kind == "file") {
                std::string path;
                in >> path;
                start(read_snap_edge_list_file(path));
            } else {
                std::fprintf(stderr,
                             "error: unknown graph kind '%s' (valid: ba, er, "
                             "file)\n",
                             kind.c_str());
                return false;
            }
        } else if (command == "steps") {
            require_engine(command);
            std::size_t k = 1;
            in >> k;
            const std::size_t ran = engine->run_rc_steps(k);
            std::printf("[%8.4fs] ran %zu RC step(s) (now at RC%zu)\n",
                        engine->sim_seconds(), ran,
                        engine->rc_steps_completed());
        } else if (command == "add") {
            require_engine(command);
            std::size_t count = 10;
            std::string strategy_name = "rr";
            std::size_t communities = 2;
            in >> count >> strategy_name >> communities;
            GrowthConfig gc;
            gc.num_new = count;
            gc.communities = std::max<std::size_t>(communities, 1);
            Rng batch_rng = workload_rng.fork();
            const auto batch =
                grow_batch(engine->num_vertices(), gc, batch_rng);
            VertexAdditionStrategy* strategy = &round_robin;
            if (strategy_name == "cutedge") {
                strategy = cut_edge.get();
            } else if (strategy_name == "repart") {
                strategy = &repartition;
            } else if (strategy_name != "rr") {
                std::fprintf(stderr,
                             "error: unknown addition strategy '%s' (valid: "
                             "rr, cutedge, repart)\n",
                             strategy_name.c_str());
                return false;
            }
            engine->apply_addition(batch, *strategy);
            mirror = apply_batch(mirror, batch);
            std::printf("[%8.4fs] +%zu vertices (%zu edges) via %s -> %zu "
                        "vertices, cut %zu\n",
                        engine->sim_seconds(), batch.num_new,
                        batch.edges.size(), strategy->name().data(),
                        engine->num_vertices(), engine->current_cut_edges());
        } else if (command == "edges") {
            require_engine(command);
            std::size_t count = 5;
            in >> count;
            std::vector<Edge> new_edges;
            std::size_t guard = 0;
            while (new_edges.size() < count && guard++ < 100 * count + 100) {
                const auto u = static_cast<VertexId>(
                    workload_rng.uniform(mirror.num_vertices()));
                const auto v = static_cast<VertexId>(
                    workload_rng.uniform(mirror.num_vertices()));
                if (u != v && mirror.add_edge(u, v, 1.0)) {
                    new_edges.push_back({u, v, 1.0});
                }
            }
            engine->add_edges(new_edges);
            std::printf("[%8.4fs] +%zu edges between existing vertices\n",
                        engine->sim_seconds(), new_edges.size());
        } else if (command == "delete") {
            require_engine(command);
            std::size_t u = 0;
            std::size_t v = 0;
            if (!(in >> u >> v)) {
                std::fprintf(stderr, "error: usage: delete <u> <v>\n");
                return false;
            }
            ShrinkBatch batch;
            batch.deletions.push_back(
                {static_cast<VertexId>(u), static_cast<VertexId>(v), 0.0});
            const ShrinkReport rep = engine->apply_deletion(batch);
            mirror.remove_edge(static_cast<VertexId>(u),
                               static_cast<VertexId>(v));
            std::printf("[%8.4fs] -edge %zu-%zu: %zu removed, %zu entries "
                        "invalidated in %zu cascade round(s)\n",
                        engine->sim_seconds(), u, v, rep.edges_removed,
                        rep.invalidated_entries, rep.cascade_rounds);
        } else if (command == "delete-vertex") {
            require_engine(command);
            std::size_t v = 0;
            if (!(in >> v)) {
                std::fprintf(stderr, "error: usage: delete-vertex <v>\n");
                return false;
            }
            if (v >= mirror.num_vertices()) {
                std::fprintf(stderr, "error: vertex %zu out of range\n", v);
                return false;
            }
            ShrinkBatch batch;
            batch.vertices.push_back(static_cast<VertexId>(v));
            const ShrinkReport rep = engine->apply_deletion(batch);
            std::vector<VertexId> targets;
            for (const Neighbor& nb :
                 mirror.neighbors(static_cast<VertexId>(v))) {
                targets.push_back(nb.to);
            }
            for (const VertexId t : targets) {
                mirror.remove_edge(static_cast<VertexId>(v), t);
            }
            std::printf("[%8.4fs] -vertex %zu: %zu incident edge(s) removed, "
                        "%zu entries invalidated in %zu cascade round(s)\n",
                        engine->sim_seconds(), v, rep.edges_removed,
                        rep.invalidated_entries, rep.cascade_rounds);
        } else if (command == "reweight") {
            require_engine(command);
            std::size_t u = 0;
            std::size_t v = 0;
            double w = 0;
            if (!(in >> u >> v >> w) || w <= 0) {
                std::fprintf(stderr,
                             "error: usage: reweight <u> <v> <w>, w > 0\n");
                return false;
            }
            const Edge update{static_cast<VertexId>(u),
                              static_cast<VertexId>(v), w};
            const ShrinkReport rep = engine->update_edge_weights({&update, 1});
            mirror.set_edge_weight(update.u, update.v, w);
            std::printf("[%8.4fs] reweight %zu-%zu -> %g: %zu raise(s), %zu "
                        "decrease(s), %zu entries invalidated\n",
                        engine->sim_seconds(), u, v, w, rep.weight_increases,
                        rep.weight_decreases, rep.invalidated_entries);
        } else if (command == "converge") {
            require_engine(command);
            const std::size_t ran = engine->run_to_quiescence();
            std::printf("[%8.4fs] converged after %zu step(s) (RC%zu total)\n",
                        engine->sim_seconds(), ran,
                        engine->rc_steps_completed());
        } else if (command == "closeness") {
            require_engine(command);
            std::size_t top = 5;
            in >> top;
            const auto scores = engine->closeness();
            const auto ranking = closeness_ranking(scores);
            std::printf("[%8.4fs] top-%zu closeness:", engine->sim_seconds(), top);
            for (std::size_t i = 0; i < top && i < ranking.size(); ++i) {
                std::printf(" %u(%.3g)", ranking[i],
                            scores.closeness[ranking[i]]);
            }
            std::printf("\n");
        } else if (command == "telemetry") {
            require_engine(command);
            std::printf("  step  exch_s     msgs   bytes       ops\n");
            for (const RcStepStats& s : engine->step_history()) {
                std::printf("  %-5zu %-10.5f %-6zu %-11zu %.3g\n", s.step,
                            s.exchange_seconds, s.messages, s.bytes, s.ops);
            }
        } else if (command == "metrics") {
            require_engine(command);
            std::string format = "json";
            std::string path;
            in >> format >> path;
            std::string payload;
            if (format == "csv") {
                payload = telemetry_csv(*engine);
            } else if (format == "json") {
                payload = telemetry_json(*engine);
            } else {
                std::fprintf(stderr,
                             "error: metrics format must be json or csv, got "
                             "'%s'\n",
                             format.c_str());
                return false;
            }
            if (path.empty()) {
                std::fwrite(payload.data(), 1, payload.size(), stdout);
                std::printf("\n");
            } else {
                std::ofstream out(path);
                if (!out) {
                    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
                    return false;
                }
                out << payload << '\n';
                std::printf("[%8.4fs] %s timeline written to %s\n",
                            engine->sim_seconds(), format.c_str(), path.c_str());
            }
        } else if (command == "checkpoint") {
            require_engine(command);
            std::string path;
            in >> path;
            // Write beside the target and rename over it, so a crash mid-save
            // never leaves a torn checkpoint where a good one was.
            const std::string tmp = path + ".tmp";
            {
                std::ofstream out(tmp, std::ios::binary);
                if (!out) {
                    std::fprintf(stderr, "error: cannot open %s\n", tmp.c_str());
                    return false;
                }
                try {
                    engine->save_checkpoint(out);
                    out.close();
                } catch (const CheckpointError& e) {
                    std::fprintf(stderr, "error: %s: %s\n", tmp.c_str(), e.what());
                    return false;
                }
                if (!out) {
                    std::fprintf(stderr, "error: cannot write %s\n", tmp.c_str());
                    return false;
                }
            }
            if (std::rename(tmp.c_str(), path.c_str()) != 0) {
                std::fprintf(stderr, "error: cannot rename %s to %s\n", tmp.c_str(),
                             path.c_str());
                return false;
            }
            std::printf("[%8.4fs] checkpoint written to %s\n",
                        engine->sim_seconds(), path.c_str());
        } else if (command == "restore") {
            std::string path;
            in >> path;
            std::ifstream file(path, std::ios::binary);
            if (!file) {
                std::fprintf(stderr, "error: cannot open checkpoint %s\n",
                             path.c_str());
                return false;
            }
            std::unique_ptr<AnytimeEngine> restored;
            try {
                restored = std::make_unique<AnytimeEngine>(
                    AnytimeEngine::load_checkpoint(file, config));
            } catch (const CheckpointError& e) {
                std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
                return false;
            }
            service.reset();  // detach the boundary hook before the swap
            engine = std::move(restored);
            mirror = engine->graph();
            attach_service();
            std::printf("[%8.4fs] restored from %s (RC%zu, %zu vertices)\n",
                        engine->sim_seconds(), path.c_str(),
                        engine->rc_steps_completed(), engine->num_vertices());
        } else if (command == "verify") {
            require_engine(command);
            const auto exact = exact_apsp(mirror);
            const auto matrix = engine->full_distance_matrix();
            std::size_t mismatches = 0;
            for (std::size_t v = 0; v < exact.size(); ++v) {
                for (std::size_t t = 0; t < exact.size(); ++t) {
                    const bool both_inf =
                        !(matrix[v][t] < kInfinity) && !(exact[v][t] < kInfinity);
                    if (!both_inf && std::abs(matrix[v][t] - exact[v][t]) > 1e-9) {
                        if (mismatches < 10) {
                            std::printf("  mismatch d(%zu,%zu): engine %g, "
                                        "exact %g (%s)\n",
                                        v, t, matrix[v][t], exact[v][t],
                                        matrix[v][t] < exact[v][t]
                                            ? "stale-low"
                                            : "not settled");
                        }
                        ++mismatches;
                    }
                }
            }
            std::printf("[%8.4fs] verify: %zu mismatching entries (%s)\n",
                        engine->sim_seconds(), mismatches,
                        mismatches == 0 ? "EXACT" : "FAILED");
            if (mismatches != 0) {
                exit_code = 1;
            }
        } else if (command == "serve-policy") {
            std::string name;
            in >> name;
            if (!parse_policy(name, policy)) {
                return false;
            }
            std::printf("serve policy: %s\n",
                        std::string(freshness_policy_name(policy)).c_str());
        } else if (command == "tenant") {
            std::string name;
            if (!(in >> name)) {
                std::fprintf(stderr,
                             "error: usage: tenant <name> [max-pending] "
                             "[slo]\n");
                return false;
            }
            const auto it = std::find_if(
                tenant_defs.begin(), tenant_defs.end(),
                [&](const TenantDef& def) { return def.name == name; });
            std::string token;
            if (in >> token) {
                if (name == "default" || it != tenant_defs.end()) {
                    std::fprintf(stderr,
                                 "error: tenant '%s' is already defined; "
                                 "re-select it without arguments\n",
                                 name.c_str());
                    return false;
                }
                TenantDef def;
                def.name = name;
                char* end = nullptr;
                const unsigned long long pending =
                    std::strtoull(token.c_str(), &end, 10);
                if (token.empty() || end != token.c_str() + token.size()) {
                    std::fprintf(stderr,
                                 "error: tenant max-pending must be a "
                                 "non-negative integer, got '%s'\n",
                                 token.c_str());
                    return false;
                }
                def.config.max_pending = static_cast<std::size_t>(pending);
                if (in >> token) {
                    const double slo = std::strtod(token.c_str(), &end);
                    if (end != token.c_str() + token.size() || !(slo >= 0)) {
                        std::fprintf(stderr,
                                     "error: tenant slo must be a "
                                     "non-negative number of wall-seconds, "
                                     "got '%s'\n",
                                     token.c_str());
                        return false;
                    }
                    def.config.freshness_slo = slo;
                }
                if (service) {
                    def.id = service->register_tenant(def.name, def.config);
                }
                tenant_defs.push_back(def);
            } else if (name != "default" && it == tenant_defs.end()) {
                std::fprintf(stderr,
                             "error: unknown tenant '%s' (define it first: "
                             "tenant <name> [max-pending] [slo])\n",
                             name.c_str());
                return false;
            }
            active_tenant_name = name;
            active_tenant = tenant_id(name);
            if (service) {
                const TenantCounters tc =
                    service->tenant_counters(active_tenant);
                char slo_text[32];
                if (tc.config.freshness_slo ==
                    std::numeric_limits<double>::infinity()) {
                    std::snprintf(slo_text, sizeof slo_text, "inf");
                } else {
                    std::snprintf(slo_text, sizeof slo_text, "%.3gs",
                                  tc.config.freshness_slo);
                }
                std::printf("[%8.4fs] tenant %s (active): max-pending %zu, "
                            "slo %s, served %llu, shed %llu, slo-misses "
                            "%llu\n",
                            engine->sim_seconds(), name.c_str(),
                            tc.config.max_pending, slo_text,
                            static_cast<unsigned long long>(tc.served),
                            static_cast<unsigned long long>(tc.shed),
                            static_cast<unsigned long long>(tc.slo_misses));
            } else {
                std::printf("tenant %s (active)\n", name.c_str());
            }
        } else if (command == "query") {
            require_engine(command);
            std::size_t v = 0;
            if (!(in >> v)) {
                std::fprintf(stderr, "error: usage: query <v> [policy]\n");
                return false;
            }
            FreshnessPolicy query_policy = policy;
            std::string name;
            if (in >> name && !parse_policy(name, query_policy)) {
                return false;
            }
            const auto result = service->point(static_cast<VertexId>(v),
                                               query_policy, active_tenant);
            if (result.meta.status != QueryStatus::Ok) {
                std::fprintf(stderr, "error: query for %zu not served\n", v);
                return false;
            }
            if (query_policy == FreshnessPolicy::BoundedError) {
                std::printf("[%8.4fs] query %zu (bounded-error): closeness "
                            "%.6g in [%.6g, %.6g]%s  [snapshot v%llu, RC%zu%s]\n",
                            engine->sim_seconds(), v, result.closeness,
                            result.bound_lo, result.bound_hi,
                            result.exact ? ", EXACT" : "",
                            static_cast<unsigned long long>(result.meta.version),
                            result.meta.rc_step,
                            result.meta.quiescent ? ", quiescent" : "");
                return true;
            }
            std::printf("[%8.4fs] query %zu (%s): closeness %.6g, reachable "
                        "%zu  [snapshot v%llu, RC%zu%s]\n",
                        engine->sim_seconds(), v,
                        std::string(freshness_policy_name(query_policy)).c_str(),
                        result.closeness, result.reachable,
                        static_cast<unsigned long long>(result.meta.version),
                        result.meta.rc_step,
                        result.meta.quiescent ? ", quiescent" : "");
        } else if (command == "topk") {
            require_engine(command);
            std::size_t k = 5;
            in >> k;
            FreshnessPolicy query_policy = policy;
            std::string name;
            if (in >> name && !parse_policy(name, query_policy)) {
                return false;
            }
            const auto result = service->topk(k, query_policy, active_tenant);
            if (result.meta.status != QueryStatus::Ok) {
                std::fprintf(stderr, "error: top-%zu query not served\n", k);
                return false;
            }
            std::printf("[%8.4fs] top-%zu (%s, snapshot v%llu%s):",
                        engine->sim_seconds(), k,
                        std::string(freshness_policy_name(query_policy)).c_str(),
                        static_cast<unsigned long long>(result.meta.version),
                        result.certified ? ", certified" : "");
            for (const auto& entry : result.entries) {
                std::printf(" %u(%.3g)", entry.vertex, entry.score);
            }
            std::printf("\n");
        } else if (command == "refine-policy") {
            std::string name;
            in >> name;
            RefinePolicy rp{RefinePolicy::Uniform};
            if (!parse_refine_policy(name, rp)) {
                std::fprintf(stderr,
                             "error: unknown refine policy '%s' (valid: "
                             "uniform, heat, topk)\n",
                             name.c_str());
                return false;
            }
            config.refine_policy = rp;  // future engines inherit it
            if (engine) {
                engine->set_refine_policy(rp);
            }
            std::printf("refine policy: %s\n",
                        std::string(refine_policy_name(rp)).c_str());
        } else if (command == "heat") {
            require_engine(command);
            std::size_t v = 0;
            if (!(in >> v)) {
                std::fprintf(stderr, "error: usage: heat <v> [weight]\n");
                return false;
            }
            double weight = 1.0;
            if (in >> weight && !(weight > 0)) {
                std::fprintf(stderr, "error: heat weight must be > 0\n");
                return false;
            }
            if (v >= engine->num_vertices()) {
                std::fprintf(stderr, "error: vertex %zu out of range\n", v);
                return false;
            }
            engine->demand().record(static_cast<VertexId>(v), weight);
            std::printf("[%8.4fs] heat %zu += %g (now %.3g)\n",
                        engine->sim_seconds(), v, weight,
                        engine->demand().heat(static_cast<VertexId>(v)));
        } else if (command == "bounds") {
            require_engine(command);
            std::size_t v = 0;
            if (!(in >> v)) {
                std::fprintf(stderr, "error: usage: bounds <v>\n");
                return false;
            }
            if (v >= engine->num_vertices()) {
                std::fprintf(stderr, "error: vertex %zu out of range\n", v);
                return false;
            }
            const ClosenessInterval iv =
                engine->closeness_interval(static_cast<VertexId>(v));
            std::printf("[%8.4fs] bounds %zu: closeness in [%.6g, %.6g] "
                        "(%s), %zu/%zu entries settled, wavefront k=%lld\n",
                        engine->sim_seconds(), v, iv.lo, iv.hi,
                        iv.exact ? "EXACT" : "pending", iv.settled,
                        engine->num_vertices(),
                        static_cast<long long>(engine->wavefront_steps()));
        } else if (command == "shards") {
            require_engine(command);
            const ShardOwnership& ownership = engine->shard_ownership();
            const auto sizes = ownership.shard_sizes();
            const auto& load = engine->migration_planner().rank_load();
            std::printf("[%8.4fs] %zu shards over %u ranks "
                        "(load imbalance %.3f, %zu shard(s) migrated)\n",
                        engine->sim_seconds(), ownership.num_shards(),
                        config.num_ranks,
                        engine->migration_planner().imbalance(),
                        engine->report().shard_migrations);
            for (RankId r = 0; r < config.num_ranks; ++r) {
                std::size_t shards = 0;
                std::size_t vertices = 0;
                for (ShardId s = 0; s < ownership.num_shards(); ++s) {
                    if (ownership.rank_of(s) == r) {
                        ++shards;
                        vertices += sizes[s];
                    }
                }
                std::printf("  rank %-3u %3zu shard(s) %5zu vertices"
                            "  load %.3g\n",
                            r, shards, vertices,
                            r < load.size() ? load[r] : 0.0);
            }
        } else if (command == "migrate") {
            require_engine(command);
            std::size_t n = 0;
            if (!(in >> n) || n == 0) {
                std::fprintf(stderr, "error: usage: migrate <n>, n > 0\n");
                return false;
            }
            const auto moves =
                engine->plan_migration(static_cast<std::uint32_t>(n));
            const std::size_t before = engine->report().shard_migrations;
            const std::size_t rows_before = engine->report().migrated_rows;
            engine->migrate_shards(moves);
            std::printf("[%8.4fs] migrate: planned %zu move(s), applied %zu "
                        "(%zu row(s) shipped)\n",
                        engine->sim_seconds(), moves.size(),
                        engine->report().shard_migrations - before,
                        engine->report().migrated_rows - rows_before);
        } else if (command == "auto-migrate") {
            require_engine(command);
            std::string value;
            in >> value;
            if (value != "on" && value != "off") {
                std::fprintf(stderr,
                             "error: auto-migrate must be on or off, got "
                             "'%s'\n",
                             value.c_str());
                return false;
            }
            double threshold = config.migrate_imbalance_threshold;
            if (in >> threshold && !(threshold >= 1.0)) {
                std::fprintf(stderr,
                             "error: auto-migrate threshold must be >= 1.0\n");
                return false;
            }
            config.auto_migrate = value == "on";  // future engines inherit it
            config.migrate_imbalance_threshold = threshold;
            engine->set_auto_migrate(config.auto_migrate);
            engine->set_migrate_imbalance_threshold(threshold);
            std::printf("auto-migrate: %s (threshold %.3g)\n", value.c_str(),
                        threshold);
        } else if (command == "help") {
            std::fputs(kHelpText, stdout);
        } else {
            std::fprintf(stderr,
                         "error: unknown command '%s' (run 'help' for the "
                         "command list)\n",
                         command.c_str());
            std::fputs(kHelpText, stderr);
            return false;
        }
        return true;
    }
};

}  // namespace

int main(int argc, char** argv) {
    if (argc != 2) {
        std::fprintf(stderr, "usage: scenario_runner <file.scn | ->\n");
        return 2;
    }
    std::ifstream file;
    std::istream* in = &std::cin;
    if (std::string(argv[1]) != "-") {
        file.open(argv[1]);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n", argv[1]);
            return 2;
        }
        in = &file;
    }
    Runner runner;
    std::string line;
    while (std::getline(*in, line)) {
        if (!runner.handle(line)) {
            return 2;
        }
    }
    return runner.exit_code;
}
