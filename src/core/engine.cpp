#include "core/engine.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "core/ia.hpp"
#include "core/rc.hpp"
#include "core/strategies.hpp"
#include "runtime/message.hpp"

namespace aa {

AnytimeEngine::AnytimeEngine(DynamicGraph graph, EngineConfig config)
    : graph_(std::move(graph)),
      config_(config),
      cluster_(std::make_unique<Cluster>(config.num_ranks, config.logp,
                                         config.schedule, config.price_model)),
      backend_(make_backend(config.backend, config.num_ranks,
                            config.backend_threads)),
      pool_(std::make_unique<ThreadPool>(
          backend_->concurrent() ? std::size_t{1} : config.ia_threads)),
      rng_(config.seed),
      metrics_(std::make_unique<MetricsRegistry>()),
      demand_(std::make_unique<DemandTracker>(graph_.num_vertices())) {
    AA_ASSERT_MSG(config_.num_ranks >= 1, "need at least one rank");
    // Resolve the ingest window once: the 0 sentinel adapts to the host LLC
    // shared by however many ranks ingest concurrently (all of them under a
    // concurrent backend). An explicit configured value always wins.
    rc_ingest_window_bytes_ =
        config_.rc_ingest_window_bytes != 0
            ? config_.rc_ingest_window_bytes
            : adaptive_rc_ingest_window_bytes(
                  backend_->concurrent() ? config_.num_ranks : 1);
    if (config_.enable_metrics) {
        metrics_->enable();
    }
    cluster_->set_metrics(metrics_.get());
}

AnytimeEngine::~AnytimeEngine() = default;

std::size_t AnytimeEngine::num_ranks() const { return cluster_->num_ranks(); }

double AnytimeEngine::sim_seconds() const { return cluster_->max_time(); }

const Cluster& AnytimeEngine::cluster() const { return *cluster_; }
Cluster& AnytimeEngine::cluster() { return *cluster_; }

void AnytimeEngine::set_boundary_hook(std::function<void(AnytimeEngine&)> hook) {
    boundary_hook_ = std::move(hook);
}

void AnytimeEngine::fire_boundary_hook() {
    // Query heat ages once per engine boundary so stale interest fades; the
    // decay skips zero cells, so an idle tracker costs one pass of loads.
    demand_->decay(kDefaultHeatDecay);
    if (metrics_->enabled()) {
        const DemandTracker::Totals totals = demand_->totals();
        metrics_->set(metrics_->gauge("refine.demand.total"), totals.total);
        metrics_->set(metrics_->gauge("refine.demand.max"), totals.max);
        metrics_->set(metrics_->gauge("refine.demand.hot"),
                      static_cast<double>(totals.hot));
    }
    if (boundary_hook_) {
        boundary_hook_(*this);
    }
}

void AnytimeEngine::set_refine_focus(const std::vector<VertexId>& focus) {
    refine_focus_mask_.assign(graph_.num_vertices(), 0);
    refine_focus_any_ = false;
    for (const VertexId v : focus) {
        if (v < refine_focus_mask_.size()) {
            refine_focus_mask_[v] = 1;
            refine_focus_any_ = true;
        }
    }
}

std::vector<std::vector<LocalId>> AnytimeEngine::plan_refine_orders() {
    std::vector<std::vector<LocalId>> plans(ranks_.size());
    if (config_.refine_policy == RefinePolicy::Uniform) {
        return plans;  // contract: empty plans = the historical schedule
    }
    std::vector<double> heat;
    const bool any_heat = demand_->snapshot(heat);
    const bool use_focus = config_.refine_policy == RefinePolicy::TopKPruned &&
                           refine_focus_any_;
    if (!any_heat && !use_focus) {
        return plans;  // no demand signal: bit-identical to Uniform
    }
    const std::span<const double> heat_span =
        any_heat ? std::span<const double>(heat) : std::span<const double>{};
    const std::span<const std::uint8_t> focus_span =
        use_focus ? std::span<const std::uint8_t>(refine_focus_mask_)
                  : std::span<const std::uint8_t>{};
    for (RankId r = 0; r < ranks_.size(); ++r) {
        plans[r] = plan_rank_order(ranks_[r].sg, heat_span, focus_span);
    }
    return plans;
}

void AnytimeEngine::refresh_weight_extremes() {
    w_min_ = kInfinity;
    w_max_ = 0;
    for (const Edge& e : graph_.edges()) {
        w_min_ = std::min(w_min_, e.weight);
        w_max_ = std::max(w_max_, e.weight);
    }
}

void AnytimeEngine::note_structural_change() {
    // Every caller has just re-settled its ranks to the local fixpoint (and
    // the deletion cascade only leaves certified-or-invalidated entries), so
    // the wavefront certificate restarts from its intra-rank base case.
    wavefront_k_ = 0;
    refresh_weight_extremes();
    demand_->resize(graph_.num_vertices());
    if (refine_focus_mask_.size() != graph_.num_vertices()) {
        refine_focus_mask_.resize(graph_.num_vertices(), 0);
    }
    // Structural changes move rows wholesale (add/swap/extract/replace) and
    // change n, which re-normalizes every closeness score under the
    // corrected variant — so the next take_changed_rows() must answer "all".
    serve_rows_all_changed_ = true;
}

BoundsParams AnytimeEngine::bounds_params() const {
    BoundsParams params;
    params.n = graph_.num_vertices();
    params.variant = config_.closeness_variant;
    params.w_min = w_min_;
    params.w_max = w_max_;
    params.wavefront_k = wavefront_k_;
    params.quiescent = initialized_ && quiescent();
    return params;
}

ClosenessInterval AnytimeEngine::closeness_interval(VertexId v) const {
    AA_ASSERT_MSG(initialized_, "initialize() must run first");
    AA_ASSERT(v < ownership_.num_vertices());
    const RankState& state = ranks_[ownership_.owner(v)];
    return row_closeness_interval(state.store.row(state.sg.local_id(v)), v,
                                  bounds_params());
}

void AnytimeEngine::run_rank_phase(
    double& ops,
    const std::function<double(RankId, std::vector<MetricSpan>&)>& fn) {
    // Per-rank results, folded in ascending rank order after the backend's
    // barrier: the accumulator and the registry see the exact sequence the
    // sequential loop would have produced, regardless of completion order.
    struct RankResult {
        double ops{0};
        std::vector<MetricSpan> spans;
    };
    std::vector<RankResult> results(ranks_.size());
    backend_->run_ranks(ranks_.size(), [&fn, &results](RankId r) {
        results[r].ops = fn(r, results[r].spans);
    });
    for (RankResult& result : results) {
        ops += result.ops;
        for (MetricSpan& span : result.spans) {
            metrics_->record_span(std::move(span));
        }
    }
}

void AnytimeEngine::run_rank_phase(double& ops,
                                   const std::function<double(RankId)>& fn) {
    run_rank_phase(ops, [&fn](RankId r, std::vector<MetricSpan>&) { return fn(r); });
}

void AnytimeEngine::settle_ranks(double& ops) {
    run_rank_phase(ops, [this](RankId r) {
        const double rank_ops =
            rc_propagate_local(ranks_[r].sg, ranks_[r].store, pool_.get());
        cluster_->charge_compute(r, rank_ops);
        return rank_ops;
    });
    cluster_->barrier();
}

double AnytimeEngine::charge_partition_cost(std::size_t vertices, std::size_t edges) {
    // Multilevel partitioning is O((V + E) log V)-ish; the paper runs
    // ParMETIS in parallel across the ranks, so divide by P.
    const double units = static_cast<double>(vertices + edges) *
                         std::log2(static_cast<double>(std::max<std::size_t>(vertices, 2)));
    const double per_rank =
        kPartitionCostFactor * units / static_cast<double>(num_ranks());
    for (RankId r = 0; r < cluster_->num_ranks(); ++r) {
        cluster_->charge_compute(r, per_rank);
    }
    return per_rank * static_cast<double>(num_ranks());
}

void AnytimeEngine::build_rank_states() {
    const std::size_t n = graph_.num_vertices();
    ranks_.clear();
    ranks_.reserve(cluster_->num_ranks());
    for (RankId r = 0; r < cluster_->num_ranks(); ++r) {
        RankState& state = ranks_.emplace_back();
        state.sg = LocalSubgraph(r, ownership_);
        state.store = DistanceStore(n);
        state.store.set_simd_enabled(config_.rc_simd);
        for (const VertexId v : state.sg.local_vertices()) {
            state.store.add_row(v);
        }
    }
    for (const Edge& e : graph_.edges()) {
        distribute_edge(e.u, e.v, e.weight);
    }
}

void AnytimeEngine::initialize() {
    AA_ASSERT_MSG(!initialized_, "initialize() called twice");
    initialized_ = true;

    const std::size_t n = graph_.num_vertices();
    const auto num_ranks = cluster_->num_ranks();
    const bool mx = metrics_->enabled();

    // ---- DD: cut-minimizing partition (the paper uses ParMETIS). ----
    const double dd_begin = cluster_->max_time();
    Rng partition_rng = rng_.fork();
    const Partitioning partition =
        multilevel_partition(graph_, num_ranks, partition_rng, config_.partition);
    // The flat assignment becomes the two-level shard map; owner resolution
    // is identical for any shards_per_rank until a shard is migrated.
    ownership_ = ShardOwnership::from_partition(partition.assignment, num_ranks,
                                                config_.shards_per_rank);
    const double dd_ops = charge_partition_cost(n, graph_.num_edges());
    if (mx) {
        metrics_->record_span(stamp_span(
            "dd", -1, -1, dd_begin, cluster_->max_time(), dd_ops,
            {{"vertices", std::to_string(n)},
             {"edges", std::to_string(graph_.num_edges())},
             {"cut_edges", std::to_string(current_cut_edges())}}));
    }
    build_rank_states();

    // ---- IA: per-rank multithreaded Dijkstra. ----
    run_rank_phase(report_.ia_ops, [&](RankId r, std::vector<MetricSpan>& sink) {
        IaProfile profile;
        const double ia_begin = cluster_->time(r);
        const double ops = ia_dijkstra_all(ranks_[r].sg, ranks_[r].store,
                                           *pool_, mx ? &profile : nullptr);
        cluster_->charge_compute(r, ops, config_.ia_threads);
        if (mx) {
            sink.push_back(stamp_span(
                "ia", r, -1, ia_begin, cluster_->time(r), ops,
                {{"sources", std::to_string(profile.sources)},
                 {"sub_vertices", std::to_string(profile.sub_vertices)},
                 {"folds", std::to_string(profile.folds)}}));
        }
        return ops;
    });
    cluster_->barrier();
    // IA leaves every intra-rank pair exact: the wavefront certificate's
    // k = 0 base case (see refine/bounds.hpp).
    wavefront_k_ = 0;
    refresh_weight_extremes();
    demand_->resize(n);
    fire_boundary_hook();
}

bool AnytimeEngine::quiescent() const {
    if (cluster_->has_pending_messages() || cluster_->mailboxes().has_unreceived()) {
        return false;
    }
    for (const RankState& state : ranks_) {
        if (state.store.any_send_pending() || state.store.any_prop_pending()) {
            return false;
        }
    }
    return true;
}

namespace {

/// Messages that become visible to one receiving rank at one simulated
/// instant: one ingest call, one clock charge, one span.
struct Arrival {
    double time{0};
    std::vector<Message> messages;
    /// Sending rank of an event-driven delivery; -1 for a whole inbox
    /// (the synchronous step's batch, or the event-driven leftovers).
    std::int64_t source{-1};
};

}  // namespace

bool AnytimeEngine::rc_step() {
    AA_ASSERT_MSG(initialized_, "initialize() must run before RC steps");
    if (quiescent()) {
        return false;
    }

    RcStepStats stats;
    stats.step = rc_steps_ + 1;
    const std::size_t messages_before = cluster_->stats().total_messages;
    const std::size_t bytes_before = cluster_->stats().total_bytes;
    const bool mx = metrics_->enabled();
    const auto step_no = static_cast<std::int64_t>(rc_steps_ + 1);
    // The exchange mode decides only *when* things happen: whether senders
    // depart together after a barrier or each at its own clock, and when
    // each message becomes visible to its receiver. What is relaxed, and in
    // which per-receiver order, is the same in both modes.
    const bool async = config_.rc_async;
    // Snapshot per-rank comm accounting before the step so the exchange span
    // can carry this step's per-rank in/out deltas.
    std::vector<RankStats> comm_before;
    if (mx) {
        comm_before.reserve(ranks_.size());
        for (RankId r = 0; r < ranks_.size(); ++r) {
            comm_before.push_back(cluster_->rank_stats(r));
        }
    }

    // Refine plans for this step: per-rank sweep orders from the query-heat
    // and top-k focus signals (all empty under Uniform / no demand — the
    // kernels then take their historical ascending sweeps, bit-identically).
    // Planned once on the driver thread so the post and propagate phases
    // below order work consistently.
    const std::vector<std::vector<LocalId>> refine_plans = plan_refine_orders();

    // Every ingest of the step runs through here: rank r waits for the
    // arrival instant (it cannot touch a payload earlier), relaxes the
    // messages through the boundary kernel, and pays for exactly this call —
    // one charge per arrival, never split, so the clock rounds the same way
    // however the step was scheduled. Rank-confined.
    const auto ingest = [&](RankId r, const Arrival& arrival,
                            std::vector<MetricSpan>& sink) {
        cluster_->advance_rank_to(r, arrival.time);
        RcIngestProfile profile;
        const double t0 = cluster_->time(r);
        const double ops = rc_ingest_updates(
            ranks_[r].sg, ranks_[r].store, arrival.messages, config_.wire_format,
            pool_.get(), kRcIngestParallelGrain, rc_ingest_window_bytes_,
            mx ? &profile : nullptr);
        cluster_->charge_compute(r, ops);
        if (mx) {
            MetricSpan span =
                stamp_span(arrival.source < 0 ? "rc.ingest" : "rc.ingest.early",
                           r, step_no, t0, cluster_->time(r), ops);
            if (arrival.source >= 0) {
                span.attrs.emplace_back("source", std::to_string(arrival.source));
                span.attrs.emplace_back("arrival", std::to_string(arrival.time));
            }
            span.attrs.emplace_back("blocks", std::to_string(profile.blocks));
            span.attrs.emplace_back("entries", std::to_string(profile.entries));
            span.attrs.emplace_back("windows", std::to_string(profile.windows));
            sink.push_back(std::move(span));
        }
        return ops;
    };

    // Phase 1: package & post boundary DV updates. Rank-confined throughout
    // (each closure serializes its own rows and posts from its own outbox).
    // An event-driven step then ingests the rank's leftover inbox — messages
    // delivered by collectives outside the RC loop, which the synchronous
    // step finds at the head of its inbox — before the exchange, so each
    // sender departs at the clock that includes that work.
    std::vector<double> post_ops(ranks_.size(), 0);
    // Per-rank ingest + propagate ops, accumulated in ingest order.
    std::vector<double> phase3_ops(ranks_.size(), 0);
    run_rank_phase(stats.ops, [&](RankId r, std::vector<MetricSpan>& sink) {
        RcPostProfile profile;
        const double t0 = cluster_->time(r);
        const double ops = rc_post_boundary_updates(
            ranks_[r].sg, ranks_[r].store, *cluster_, config_.wire_format,
            mx ? &profile : nullptr, refine_plans[r]);
        cluster_->charge_compute(r, ops);
        post_ops[r] = ops;
        if (mx) {
            MetricSpan span = stamp_span(
                "rc.post", r, step_no, t0, cluster_->time(r), ops,
                {{"blocks", std::to_string(profile.blocks)},
                 {"entries", std::to_string(profile.entries)}});
            span.bytes = profile.bytes;
            span.messages = profile.messages;
            sink.push_back(std::move(span));
        }
        if (async) {
            const Arrival leftovers{cluster_->time(r), cluster_->receive(r)};
            if (!leftovers.messages.empty()) {
                phase3_ops[r] += ingest(r, leftovers, sink);
            }
        }
        return ops;
    });
    for (const double ops : post_ops) {
        report_.rc_ops += ops;
    }

    // Phase 2: the exchange, resolved into each receiver's arrivals in
    // canonical order (the synchronous inbox order — round order of the
    // all-to-all). Relaxation acceptance has an epsilon band, so that order
    // is what keeps distances, dirty order and ops identical across modes.
    std::vector<std::vector<Arrival>> arrivals(ranks_.size());
    double exchange_begin = 0;
    double exchange_end = 0;
    if (async) {
        // Event-driven: every message is a timestamped delivery event with
        // senders departing at their own clocks (no entry barrier), so the
        // exchange window opens at the fastest poster's clock. Each message
        // is its own arrival, ingested no earlier than it lands.
        exchange_begin = cluster_->time(0);
        for (RankId r = 1; r < ranks_.size(); ++r) {
            exchange_begin = std::min(exchange_begin, cluster_->time(r));
        }
        exchange_end = exchange_begin;
        EventQueue events;
        for (DeliveryEvent& e : cluster_->pipelined_exchange()) {
            // Canonical drain order: ascending seq per receiver.
            exchange_end = std::max(exchange_end, e.time);
            arrivals[e.message.to].push_back(
                {e.time, {e.message}, static_cast<std::int64_t>(e.source)});
            events.push(std::move(e));
        }
        stats.exchange_seconds = exchange_end - exchange_begin;
        while (!events.empty()) {
            const DeliveryEvent e = events.pop();
            delivery_trace_.push_back({stats.step, e.time, e.source, e.message.to,
                                       e.seq, e.message.size_bytes()});
        }
    } else {
        // Step-synchronous: one priced collective with barrier semantics;
        // every rank's whole inbox arrives as one batch when it ends.
        exchange_begin = cluster_->max_time();
        stats.exchange_seconds = cluster_->exchange();
        exchange_end = cluster_->max_time();
        for (RankId r = 0; r < ranks_.size(); ++r) {
            arrivals[r].push_back({exchange_end, cluster_->receive(r)});
        }
    }
    if (mx) {
        // The exchange window (already resolved, so the span's clock reads
        // its start at open and its end at close) with per-rank children:
        // each carries its own rank's sent-side load, plus the received side
        // as attributes.
        double t = exchange_begin;
        ScopedSpan exchange(*metrics_, async ? "rc.exchange.inflight" : "rc.exchange",
                            -1, step_no, [&t] { return t; });
        t = exchange_end;
        for (RankId r = 0; r < ranks_.size(); ++r) {
            const RankStats& now = cluster_->rank_stats(r);
            MetricSpan span = stamp_span(
                "rc.exchange.rank", r, step_no, exchange_begin, exchange_end, 0,
                {{"bytes_in",
                  std::to_string(now.bytes_received - comm_before[r].bytes_received)},
                 {"messages_in", std::to_string(now.messages_received -
                                                comm_before[r].messages_received)}});
            span.bytes = now.bytes_sent - comm_before[r].bytes_sent;
            span.messages = now.messages_sent - comm_before[r].messages_sent;
            exchange.add(0, span.bytes, span.messages);
            metrics_->record_span(std::move(span));
        }
    }

    // Phase 3: ingest each arrival, then propagate to the local fixpoint once
    // the rank has everything (deferring propagate past the last ingest is
    // what keeps the event-driven relaxation order equal to the synchronous
    // one). The batched kernels fan the row sweeps out to the intra-rank pool
    // (multi-threaded only under the sequential backend) — that accelerates host
    // wall-clock time only; the simulated clock still prices RC
    // single-threaded per rank (the paper's model), so `threads` stays 1 in
    // charge_compute.
    run_rank_phase(stats.ops, [&](RankId r, std::vector<MetricSpan>& sink) {
        for (const Arrival& arrival : arrivals[r]) {
            phase3_ops[r] += ingest(r, arrival, sink);
        }
        RcPropagateProfile prop_profile;
        const double t1 = cluster_->time(r);
        const double prop_ops = rc_propagate_local(
            ranks_[r].sg, ranks_[r].store, pool_.get(),
            kRcPropagateParallelGrain, mx ? &prop_profile : nullptr,
            kRcPropagateTileCols, refine_plans[r], config_.refine_budget_ops);
        cluster_->charge_compute(r, prop_ops);
        phase3_ops[r] += prop_ops;
        if (mx) {
            sink.push_back(stamp_span(
                "rc.propagate", r, step_no, t1, cluster_->time(r), prop_ops,
                {{"rows_drained", std::to_string(prop_profile.rows_drained)}}));
        }
        return phase3_ops[r];
    });
    for (const double ops : phase3_ops) {
        report_.rc_ops += ops;
    }
    cluster_->barrier();

    ++rc_steps_;
    // Advance the wavefront certificate only for full-fixpoint steps: a
    // budgeted propagate may stop short of the local fixpoint the
    // certificate's induction needs (settled entries stay settled either
    // way, so a stale k is sound, just loose).
    if (config_.refine_budget_ops <= 0) {
        wavefront_k_ = wavefront_k_ < 0 ? 0 : wavefront_k_ + 1;
    }
    report_.rc_steps = rc_steps_;
    report_.sim_seconds = sim_seconds();
    stats.messages = cluster_->stats().total_messages - messages_before;
    stats.bytes = cluster_->stats().total_bytes - bytes_before;
    stats.sim_seconds_after = sim_seconds();
    step_history_.push_back(stats);

    // Feed the migration planner the step's measured per-rank relax load
    // (post + ingest + propagate ops — the same numbers the phase spans
    // record), summed into phase3_ops. Observing is free bookkeeping; shards
    // only move when auto_migrate opts in.
    for (RankId r = 0; r < ranks_.size(); ++r) {
        phase3_ops[r] += post_ops[r];
    }
    planner_.observe(phase3_ops);
    if (mx) {
        metrics_->set(metrics_->gauge("shard.load.imbalance"),
                      planner_.imbalance());
    }
    // Auto-migration needs a warm EWMA: migrate_shards resets the planner, so
    // requiring a few boundaries of fresh observations before the next move
    // keeps the drain work of a migration (itself skewed toward the receiving
    // rank) from re-triggering the planner forever — the drain quiesces in
    // fewer steps than the warmup, so only sustained real load can migrate.
    constexpr std::size_t kAutoMigrateWarmupSteps = 4;
    if (config_.auto_migrate &&
        planner_.observations() >= kAutoMigrateWarmupSteps) {
        const std::vector<ShardMove> moves =
            plan_migration(config_.migrate_max_shards);
        if (!moves.empty()) {
            migrate_shards(moves);
        }
    }
    fire_boundary_hook();
    return true;
}

std::vector<double> AnytimeEngine::shard_static_weights() const {
    std::vector<double> weights(ownership_.num_shards(), 0.0);
    for (const RankState& state : ranks_) {
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            weights[ownership_.shard(state.sg.global_id(l))] +=
                1.0 + static_cast<double>(state.sg.neighbors(l).size());
        }
    }
    return weights;
}

std::vector<ShardMove> AnytimeEngine::plan_migration(
    std::uint32_t max_moves) const {
    if (!initialized_) {
        return {};
    }
    return planner_.plan(ownership_, shard_static_weights(), max_moves,
                         config_.migrate_imbalance_threshold);
}

std::size_t AnytimeEngine::run_rc_steps(std::size_t max_steps) {
    std::size_t steps = 0;
    while (steps < max_steps && rc_step()) {
        ++steps;
    }
    return steps;
}

std::size_t AnytimeEngine::run_to_quiescence() {
    return run_rc_steps(std::numeric_limits<std::size_t>::max());
}

void AnytimeEngine::apply_addition(const GrowthBatch& batch,
                                   VertexAdditionStrategy& strategy) {
    AA_ASSERT_MSG(initialized_, "initialize() must run before dynamic updates");
    {
        auto span = phase_span("add");
        if (span) {
            span.attr("strategy", std::string(strategy.name()));
            span.attr("new_vertices", std::to_string(batch.num_new));
            span.attr("batch_edges", std::to_string(batch.edges.size()));
        }
        last_moved_vertices_ = 0;
        const std::size_t edges_before = graph_.num_edges();
        strategy.apply(*this, batch);
        report_.vertex_additions += batch.num_new;
        // A batch edge repeated (as u v or v u) is inserted once.
        report_.edge_additions += graph_.num_edges() - edges_before;
        report_.sim_seconds = sim_seconds();
        if (span) {
            // Batch edges that ended up spanning ranks under the strategy's
            // placement — the paper's "new cut edges" quality signal (Figure 7).
            std::size_t new_cut = 0;
            for (const Edge& e : batch.edges) {
                if (ownership_.owner(e.u) != ownership_.owner(e.v)) {
                    ++new_cut;
                }
            }
            span.attr("new_cut_edges", std::to_string(new_cut));
            span.attr("moved_vertices", std::to_string(last_moved_vertices_));
            span.attr("cut_edges_after", std::to_string(current_cut_edges()));
        }
    }
    fire_boundary_hook();
}

std::size_t AnytimeEngine::current_cut_edges() const {
    std::size_t cut = 0;
    for (const Edge& e : graph_.edges()) {
        if (ownership_.owner(e.u) != ownership_.owner(e.v)) {
            ++cut;
        }
    }
    return cut;
}

std::vector<Weight> AnytimeEngine::distance_row(VertexId v) const {
    AA_ASSERT(v < ownership_.num_vertices());
    const RankState& state = ranks_[ownership_.owner(v)];
    const auto row = state.store.row(state.sg.local_id(v));
    return {row.begin(), row.end()};
}

Weight AnytimeEngine::query_distance(VertexId u, VertexId v) {
    AA_ASSERT_MSG(initialized_, "initialize() must run first");
    AA_ASSERT(u < ownership_.num_vertices() && v < ownership_.num_vertices());
    drain_in_flight_updates();
    const RankId owner = ownership_.owner(u);
    const RankState& state = ranks_[owner];
    const Weight result = state.store.at(state.sg.local_id(u), v);
    // Price the round trip: an 8-byte request and a 16-byte reply between
    // rank 0 (the query frontend) and the owner, plus the O(1) lookup.
    if (owner != 0) {
        cluster_->send(0, owner, MessageTag::Control, std::vector<std::byte>(8));
        cluster_->send(owner, 0, MessageTag::Control, std::vector<std::byte>(16));
        cluster_->exchange();
        for (const RankId r : {RankId{0}, owner}) {
            for (const Message& m : cluster_->receive(r)) {
                AA_ASSERT(m.tag == MessageTag::Control);
            }
        }
    }
    cluster_->charge_compute(owner, 1);
    return result;
}

std::vector<std::vector<Weight>> AnytimeEngine::full_distance_matrix() const {
    const std::size_t n = graph_.num_vertices();
    std::vector<std::vector<Weight>> matrix(n);
    for (const RankState& state : ranks_) {
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            const auto row = state.store.row(l);
            matrix[state.sg.global_id(l)] = {row.begin(), row.end()};
        }
    }
    return matrix;
}

void AnytimeEngine::visit_rows(
    const std::function<void(VertexId, std::span<const Weight>)>& fn) const {
    for (const RankState& state : ranks_) {
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            fn(state.sg.global_id(l), state.store.row(l));
        }
    }
}

std::span<const Weight> AnytimeEngine::row_view(VertexId v) const {
    AA_ASSERT(v < ownership_.num_vertices());
    const RankState& state = ranks_[ownership_.owner(v)];
    return state.store.row(state.sg.local_id(v));
}

AnytimeEngine::ChangedRows AnytimeEngine::take_changed_rows() {
    ChangedRows out;
    out.all = serve_rows_all_changed_;
    serve_rows_all_changed_ = false;
    // Drain even on the conservative answer so the stamps restart from a
    // clean epoch for the next interval.
    for (RankState& state : ranks_) {
        state.store.drain_touched([&](VertexId v) { out.rows.push_back(v); });
    }
    if (out.all) {
        out.rows.clear();
        return out;
    }
    // Each vertex lives in exactly one rank's store, but keep the output
    // canonical (ascending, unique) regardless of rank iteration order.
    std::sort(out.rows.begin(), out.rows.end());
    out.rows.erase(std::unique(out.rows.begin(), out.rows.end()),
                   out.rows.end());
    return out;
}

ClosenessScores AnytimeEngine::closeness() const {
    return closeness_from_matrix(full_distance_matrix(), config_.closeness_variant);
}

ClosenessScores AnytimeEngine::compute_closeness_distributed() {
    AA_ASSERT_MSG(initialized_, "initialize() must run first");
    drain_in_flight_updates();
    const std::size_t n = graph_.num_vertices();

    // Wire triple: (vertex, closeness score, reachable count). The score is
    // evaluated rank-side through the same closeness_score() expression the
    // observer path uses, so the two agree bit-for-bit.
    struct ScoreEntry {
        VertexId vertex;
        double closeness;
        std::uint64_t reachable;
    };
    static_assert(std::is_trivially_copyable_v<ScoreEntry>);

    ClosenessScores scores;
    scores.closeness.assign(n, 0);
    scores.reachable.assign(n, 0);

    for (RankId r = 0; r < ranks_.size(); ++r) {
        const RankState& state = ranks_[r];
        std::vector<ScoreEntry> entries;
        entries.reserve(state.sg.num_local());
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            const auto row = state.store.row(l);
            Weight sum = 0;
            std::uint64_t reached = 0;
            for (const Weight d : row) {
                if (d < kInfinity) {
                    sum += d;
                    ++reached;
                }
            }
            entries.push_back(
                {state.sg.global_id(l),
                 closeness_score(sum, static_cast<std::size_t>(reached), n,
                                 config_.closeness_variant),
                 reached});
        }
        // Each row costs one pass over its n columns.
        cluster_->charge_compute(
            r, static_cast<double>(state.sg.num_local()) * static_cast<double>(n));

        if (r == 0) {
            for (const ScoreEntry& entry : entries) {
                scores.closeness[entry.vertex] = entry.closeness;
                scores.reachable[entry.vertex] = entry.reachable;
            }
        } else {
            Serializer out;
            out.write_span(std::span<const ScoreEntry>(entries));
            cluster_->send(r, 0, MessageTag::Control, out.take());
        }
    }
    cluster_->exchange();
    for (const Message& message : cluster_->receive(0)) {
        AA_ASSERT(message.tag == MessageTag::Control);
        Deserializer in(message.bytes());
        for (const ScoreEntry& entry : in.read_vector<ScoreEntry>()) {
            scores.closeness[entry.vertex] = entry.closeness;
            scores.reachable[entry.vertex] = entry.reachable;
        }
        cluster_->charge_compute(0, static_cast<double>(message.bytes().size()) / 16);
    }
    cluster_->barrier();
    return scores;
}

}  // namespace aa
