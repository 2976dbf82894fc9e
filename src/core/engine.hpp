// AnytimeEngine: the anytime-anywhere closeness-centrality engine.
//
// Orchestrates the paper's three phases on the simulated cluster:
//   DD  — multilevel cut-minimizing partition, rank state construction,
//   IA  — per-rank multithreaded Dijkstra,
//   RC  — iterated boundary-DV exchange + local relaxation, with dynamic
//         vertex additions injected between steps through a
//         VertexAdditionStrategy (RoundRobin-PS / CutEdge-PS / Repartition-S).
//
// The engine executes the real distributed algorithm (per-rank private state,
// serialized messages); the Cluster prices every operation and byte with the
// LogP model, so `sim_seconds()` plays the role of the paper's measured wall
// time. See DESIGN.md §2.
//
// Rank executors. Between collectives each simulated processor touches only
// its own sub-graph, DistanceStore rows, clock and outbox, so every per-rank
// phase (IA Dijkstra, RC post/ingest/propagate, addition extend/propagate,
// the row move, every update's local re-settle) is a closure over one rank's
// state, run as one ThreadPool::parallel_for over [0, P) on the engine's pool of
// EngineConfig::backend_threads executors (thread-per-core by default, so
// real cores run ranks in parallel like the paper's MPI deployment). One
// executor runs the ranks in ascending order on the driver thread. Each
// executor is a separate glibc malloc arena, so the default stops at the
// core count. The parallel_for is a barrier: every closure's writes are
// visible to the driver when it returns; collectives (exchange, broadcast,
// barrier, the event-driven delivery loop) stay on the driver thread.
//
// Determinism contract: for a fixed seed and config, closeness output and
// sim_seconds() are bit-identical for every executor count and thread
// schedule. The engine earns that by construction —
//   * rank closures only mutate rank-confined state (see the concurrency
//     contracts on Cluster, MailboxSystem and DistanceStore);
//   * cross-rank floating-point accumulations (report ops, step stats) are
//     reduced from per-rank slots in ascending rank order after the barrier;
//   * telemetry spans are buffered per rank inside the closure and merged in
//     rank order at the barrier (MetricsRegistry is single-writer);
//   * simulated-time pricing is per-rank clock arithmetic, unaffected by who
//     advances the clock or when.
// tests/test_backend.cpp enforces it over graphs x P x schedules x executor
// counts, including mid-RC addition and deletion batches.
//
// Typical use:
//   AnytimeEngine engine(graph, config);
//   engine.initialize();                  // DD + IA
//   engine.run_rc_steps(4);               // progress to RC4
//   RoundRobinPS strategy;
//   engine.apply_addition(batch, strategy);
//   engine.run_to_quiescence();
//   auto scores = engine.closeness();
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/closeness.hpp"
#include "core/distance_store.hpp"
#include "core/edge_delete.hpp"
#include "core/rc.hpp"
#include "core/subgraph.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "partition/multilevel.hpp"
#include "refine/bounds.hpp"
#include "refine/demand.hpp"
#include "refine/planner.hpp"
#include "runtime/cluster.hpp"
#include "runtime/thread_pool.hpp"
#include "shard/migration.hpp"
#include "shard/ownership.hpp"

namespace aa {

class VertexAdditionStrategy;

/// How Repartition-S obtains the new partition.
enum class RepartitionMode {
    /// Partition the grown graph from scratch with the multilevel algorithm
    /// (the paper's choice: "we reused the algorithm from the DD phase").
    Scratch,
    /// Adaptive repartitioning (ParMETIS-AdaptiveRepart style, an extension):
    /// place new vertices by host-edge affinity and run FM refinement from
    /// the current assignment. Far fewer vertices move, so the migration and
    /// re-marking cost shrinks; cut quality can be slightly worse.
    Adaptive,
};

/// Abstract ops charged per (vertex + edge) * log2(n) unit of multilevel
/// partitioning work (calibrates DD / Repartition-S / CutEdge-PS partitioning
/// cost against METIS).
inline constexpr double kPartitionCostFactor = 8.0;

struct EngineConfig {
    /// Number of simulated processors (the paper evaluates with 16).
    std::uint32_t num_ranks{16};
    /// Threads per rank for the IA-phase Dijkstra (the paper's OpenMP T).
    /// The simulated clock prices IA at T-way; on the host each rank runs
    /// its Dijkstra sources on its own executor (see backend_threads).
    std::size_t ia_threads{4};
    /// Cost model of the simulated interconnect.
    LogPParams logp{};
    /// RC-step communication schedule.
    CommSchedule schedule{CommSchedule::SerializedAllToAll};
    /// Bandwidth price model for the simulated interconnect (see PriceModel
    /// in runtime/logp.hpp). PerByte, the only value, charges every message
    /// its serialized wire size.
    PriceModel price_model{PriceModel::PerByte};
    /// Event-driven RC exchange (relax-on-arrival): boundary messages become
    /// timestamped delivery events (see runtime/event_loop.hpp) scheduled
    /// under `schedule` with senders departing at their own clocks, and each
    /// rank ingests a message as soon as it arrives instead of waiting for
    /// the collective barrier. Both modes run the same RC step body; this
    /// flag picks only the exchange call and so the arrival time of each
    /// message. Distances, dirty order, op counts, and message traffic are
    /// bit-identical to the step-synchronous default at every step — each
    /// receiver ingests in the canonical per-receiver message order, so only
    /// the simulated timeline (sim_seconds, span bounds) changes. Ingest runs
    /// in the rank closures, so the rank executors parallelize it.
    bool rc_async{false};
    /// DD / Repartition-S partitioner parameters.
    MultilevelConfig partition{};
    /// Seed for the partitioner and any stochastic strategy components.
    std::uint64_t seed{0x5EED};
    /// Repartition-S variant (see RepartitionMode).
    RepartitionMode repartition_mode{RepartitionMode::Scratch};
    /// Closeness formula (Wasserman–Faust corrected vs. the paper's raw
    /// inverse-sum; see ClosenessVariant). Applied by closeness() and the
    /// distributed reduction alike.
    ClosenessVariant closeness_variant{ClosenessVariant::Corrected};
    /// Record phase/step spans and comm metrics on the simulated clock (see
    /// common/metrics.hpp and core/telemetry.hpp). Off by default: a
    /// disabled registry costs one branch per phase and allocates nothing.
    bool enable_metrics{false};
    /// Rank executors: the threads that run the per-rank phase bodies, the
    /// driver thread included; 0 (the default) = thread-per-core. The count
    /// is clamped to [1, num_ranks]. One executor runs the ranks in ascending
    /// order on the driver thread. Results, telemetry and sim_seconds() are
    /// bit-identical for every count by contract (see AnytimeEngine).
    std::size_t backend_threads{0};
    /// Boundary-DV wire format for the RC exchange (see
    /// BoundaryWireFormat in core/distance_store.hpp and the block format in
    /// core/rc.hpp). V2Soa is the only format.
    BoundaryWireFormat wire_format{BoundaryWireFormat::V2Soa};
    /// Payload-window size for the RC ingest kernel (see rc.hpp). Windowing
    /// never changes results — a 256-byte window and a 128 MB window produce
    /// bit-identical state — only cache behaviour. 0 (the default) resolves
    /// adaptively at engine construction: the host LLC divided by the rank
    /// count, clamped to [4 MiB, 128 MiB] — see
    /// adaptive_rc_ingest_window_bytes. An explicit value always wins.
    std::size_t rc_ingest_window_bytes{0};
    /// Allow the explicit SIMD relaxation sweeps (effective only on x86-64
    /// hardware with AVX2; results are bit-identical to the scalar reference
    /// either way).
    bool rc_simd{true};
    /// How the RC kernels order per-rank work (see refine/planner.hpp).
    /// Uniform — the default — keeps the historical ascending sweeps and is
    /// bit-identical to the pre-refine engine by contract (schedule, ops,
    /// dirty sets, span sequence); QueryHeat reorders the post and
    /// propagate worklists toward query-hot rows whenever the DemandTracker
    /// holds a positive signal.
    /// Reordering never changes the converged state, only which rows become
    /// exact first.
    RefinePolicy refine_policy{RefinePolicy::Uniform};
    /// Per-rank, per-step cap on propagate relaxation attempts (see
    /// rc_propagate_local's max_ops). 0 — the default — drains to the local
    /// fixpoint every step, the historical behaviour. A positive budget
    /// makes steps incremental: undrained rows stay marked and convergence
    /// is spread over more (cheaper) steps, which is what gives a refine
    /// policy room to finish hot rows first. Every rank gets the same
    /// budget, under any policy.
    double refine_budget_ops{0};
    /// Logical shards per rank in the vertex -> shard -> rank ownership
    /// indirection (see shard/ownership.hpp). Any granularity resolves
    /// ownership identically while no shard has been migrated — results,
    /// ops, messages and span sequences are bit-identical across values —
    /// but a larger count gives the migration planner finer moves. 1
    /// degenerates to the historical one-bucket-per-rank map.
    std::uint32_t shards_per_rank{8};
    /// Plan and apply shard migrations automatically at RC-step boundaries
    /// (see shard/migration.hpp). Off by default: a disabled planner still
    /// observes load (free) but the engine never moves a shard, keeping the
    /// bit-identity contract with the pre-shard engine.
    bool auto_migrate{false};
    /// Auto-migration: most shards moved per RC-step boundary.
    std::uint32_t migrate_max_shards{1};
    /// Auto-migration: max/mean per-rank load (EWMA of measured relax ops)
    /// that must be exceeded before a move is planned.
    double migrate_imbalance_threshold{1.25};
};

/// Thrown by load_checkpoint on any malformed, corrupt, truncated or
/// mismatched checkpoint (and by save_checkpoint when the stream fails). The
/// message names what was rejected; a checkpoint is never loaded partially.
class CheckpointError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Counters describing one engine lifetime; used by benchmarks and reports.
struct EngineReport {
    std::size_t rc_steps{0};
    double sim_seconds{0};
    double ia_ops{0};
    double rc_ops{0};
    double dynamic_ops{0};
    std::size_t vertex_additions{0};
    std::size_t edge_additions{0};
    std::size_t edge_deletions{0};
    std::size_t weight_updates{0};
    /// (row, column) entries reset to infinity by deletion cascades.
    std::size_t invalidated_entries{0};
    /// Shards repointed to another rank (incremental migration).
    std::size_t shard_migrations{0};
    /// DV rows shipped by those migrations.
    std::size_t migrated_rows{0};
};

/// One delivery event of an event-driven RC step, recorded in the (time,
/// source, seq) total order (see runtime/event_loop.hpp). The trace is what
/// the determinism tests compare across executor counts and across repeated
/// threaded runs: identical traces mean the whole relax-on-arrival schedule
/// replayed identically.
struct DeliveryTraceEntry {
    std::size_t step{0};
    double time{0};
    RankId from{0};
    RankId to{0};
    std::uint64_t seq{0};
    std::size_t bytes{0};
};

/// Telemetry for one RC step (appended by every rc_step()).
struct RcStepStats {
    std::size_t step{0};
    /// Duration of this step's all-to-all exchange.
    double exchange_seconds{0};
    /// Messages / payload bytes shipped in this step.
    std::size_t messages{0};
    std::size_t bytes{0};
    /// Relaxation work performed (post + ingest + propagate ops).
    double ops{0};
    /// Simulated clock after the step's barrier.
    double sim_seconds_after{0};
};

class AnytimeEngine {
public:
    explicit AnytimeEngine(DynamicGraph graph, EngineConfig config = {});
    ~AnytimeEngine();

    AnytimeEngine(const AnytimeEngine&) = delete;
    AnytimeEngine& operator=(const AnytimeEngine&) = delete;
    AnytimeEngine(AnytimeEngine&&) noexcept = default;
    AnytimeEngine& operator=(AnytimeEngine&&) noexcept = default;

    // ---- phases -----------------------------------------------------------

    /// DD + IA. Must be called exactly once before any RC step.
    void initialize();

    /// One recombination step. Returns false (and does nothing) if the system
    /// is already quiescent — no pending sends, propagations or messages.
    bool rc_step();

    /// Run up to `max_steps` RC steps (default: until quiescent). Returns the
    /// number of steps executed.
    std::size_t run_rc_steps(std::size_t max_steps);
    std::size_t run_to_quiescence();

    /// True when no rank holds unsent/unpropagated changes and no message is
    /// in flight, posted or waiting in an inbox: the distance vectors equal
    /// the exact APSP of the current graph (within the relaxation epsilon;
    /// exactly, for uniform weights).
    bool quiescent() const;

    // ---- dynamic updates --------------------------------------------------

    /// Incorporate a batch of new vertices using the given strategy. The
    /// engine applies the structural change and the strategy's update
    /// algorithm; the caller then resumes RC stepping to convergence.
    void apply_addition(const GrowthBatch& batch, VertexAdditionStrategy& strategy);

    /// The "anywhere" vertex-addition algorithm (paper Figure 3) with an
    /// explicit per-vertex rank assignment (assignment[i] = rank of the i-th
    /// new vertex). RoundRobin-PS / CutEdge-PS call this.
    void anywhere_add(const GrowthBatch& batch, const std::vector<RankId>& assignment);

    /// Repartition-S: repartition the whole grown graph, move the existing
    /// DV rows to their new owners through the shard-migration protocol,
    /// then integrate the batch as anywhere_add does.
    void repartition_add(const GrowthBatch& batch);

    /// Anywhere edge additions between *existing* vertices (the authors'
    /// prior work [9], which vertex addition builds on). Duplicates are
    /// skipped. Resume RC stepping afterwards to converge.
    void add_edges(std::span<const Edge> edges);

    /// Set one edge's weight (prior work [7]) through update_edge_weights:
    /// a decrease takes the growth-path broadcast, an increase the
    /// invalidate/re-settle path. Returns false if the edge does not exist.
    bool decrease_edge_weight(VertexId u, VertexId v, Weight new_weight);

    /// Fully-dynamic shrink updates: edge/vertex deletions and weight
    /// increases via SSSP-Del-style invalidate/re-settle, weight decreases
    /// via the growth-path broadcast (see core/edge_delete.hpp for the batch
    /// semantics and the phase overview). Resume RC stepping afterwards; at
    /// quiescence the state matches a from-scratch engine on the final graph.
    ShrinkReport apply_deletion(const ShrinkBatch& batch);

    /// Mixed edge-weight updates (weight = the new weight): increases run
    /// through apply_deletion's cascade, decreases through the broadcast
    /// path, in one atomic batch. Absent edges are skipped.
    ShrinkReport update_edge_weights(std::span<const Edge> updates);

    // ---- incremental shard migration ---------------------------------------

    /// Apply the given shard moves through the engine's row move
    /// (core/migrate.cpp): drain in-flight boundary messages, ship each
    /// moving shard's DV rows + adjacency over the wire (boundary-block
    /// encoding), republish the shard map, splice the rows out
    /// of / into the rank states, and re-settle locally. Converged state
    /// afterwards is bit-identical to a from-scratch engine on the final
    /// assignment. No-op moves (unknown shard, same rank) are skipped.
    void migrate_shards(std::span<const ShardMove> moves);

    /// What the telemetry-driven planner would move right now (bounded by
    /// `max_moves`); empty while measured load stays under the configured
    /// imbalance threshold. Pure planning — applies nothing.
    std::vector<ShardMove> plan_migration(std::uint32_t max_moves) const;

    /// The telemetry-driven migration planner (per-rank load EWMA fed from
    /// each RC step's measured relax ops).
    const MigrationPlanner& migration_planner() const { return planner_; }

    // ---- results & introspection -------------------------------------------

    std::size_t num_vertices() const { return graph_.num_vertices(); }
    /// True once initialize() (or a checkpoint restore) has run.
    bool initialized() const { return initialized_; }
    std::size_t num_ranks() const;
    std::size_t rc_steps_completed() const { return rc_steps_; }
    double sim_seconds() const;
    const Cluster& cluster() const;
    Cluster& cluster();
    /// Rank executors running the per-rank phase bodies, the driver thread
    /// included (EngineConfig::backend_threads, resolved and clamped).
    std::size_t num_executors() const { return executors_->num_threads(); }
    const DynamicGraph& graph() const { return graph_; }
    /// The flat vertex -> rank map, materialized from the shard indirection
    /// (partition evaluation, placement strategies).
    std::vector<RankId> owners() const { return ownership_.owners(); }
    /// The two-level vertex -> shard -> rank ownership map.
    const ShardOwnership& shard_ownership() const { return ownership_; }
    const EngineReport& report() const { return report_; }
    Rng& rng() { return rng_; }
    const EngineConfig& config() const { return config_; }

    /// Current cut-edge count of the live partition.
    std::size_t current_cut_edges() const;

    /// Gather the distance row of one vertex from its owning rank.
    /// Observer only (no charges).
    std::vector<Weight> distance_row(VertexId v) const;

    /// Point query "current estimate of d(u, v)" the way a deployed service
    /// would answer it: a request/response message pair with the owning rank,
    /// priced by the cost model. Returns kInfinity while unknown.
    Weight query_distance(VertexId u, VertexId v);

    /// Gather the full n x n matrix (testing / quality measurement only).
    std::vector<std::vector<Weight>> full_distance_matrix() const;

    /// Observer-only visitor over every vertex's current DV row (one call
    /// per vertex, unspecified order; the span is valid only inside the
    /// call). Charges nothing and avoids materializing the full matrix. Must
    /// run on the driver thread — rows race with RC relaxation otherwise.
    void visit_rows(
        const std::function<void(VertexId, std::span<const Weight>)>& fn) const;

    /// Zero-copy observer of one vertex's current DV row. Driver thread
    /// only; the span is invalidated by the next engine mutation. The serve
    /// layer's snapshot builder re-sums its row set through this instead of
    /// copying rows (distance_row).
    std::span<const Weight> row_view(VertexId v) const;

    /// Rows whose values may have changed since the previous call (global
    /// vertex ids). `all` is the conservative answer after any structural
    /// change (additions, deletions, reweights, repartition, migration,
    /// checkpoint restore) — every row must be treated as changed; otherwise
    /// `rows` is the exact touched set (ascending, deduplicated), drained
    /// from the per-row stamps every DistanceStore mutation sets. Driver
    /// thread only, engine idle (boundary-hook contract); draining resets
    /// the stamps, so each mutation is reported exactly once.
    struct ChangedRows {
        bool all{false};
        std::vector<VertexId> rows;
    };
    ChangedRows take_changed_rows();

    /// Boundary hook for the serve layer: when set, invoked after
    /// initialize(), after every *completed* rc_step(), and after each
    /// dynamic-update entry point (apply_addition, add_edges, and a
    /// decrease_edge_weight that changed a weight). Runs on the calling
    /// thread with the engine idle between phases; the hook must only
    /// observe the algorithmic state (query state, build snapshots) — never
    /// mutate it. Refinement *hints* (demand().record) are the one
    /// sanctioned exception: they steer the schedule, not the answer.
    void set_boundary_hook(std::function<void(AnytimeEngine&)> hook);

    // ---- demand-driven refinement ------------------------------------------

    /// The per-vertex query-heat accumulator the serve layer feeds and the
    /// refine planner reads (see refine/demand.hpp). record() is safe from
    /// any thread; the engine decays it once per boundary.
    DemandTracker& demand() { return *demand_; }
    const DemandTracker& demand() const { return *demand_; }

    RefinePolicy refine_policy() const { return config_.refine_policy; }
    void set_refine_policy(RefinePolicy policy) {
        config_.refine_policy = policy;
    }
    void set_refine_budget_ops(double ops) { config_.refine_budget_ops = ops; }
    /// Toggle planner-driven migration at RC-step boundaries (scenario
    /// tooling; construction-time config everywhere else).
    void set_auto_migrate(bool on) { config_.auto_migrate = on; }
    /// Adjust the planner's max/mean load trigger (scenario tooling).
    void set_migrate_imbalance_threshold(double threshold) {
        config_.migrate_imbalance_threshold = threshold;
    }

    /// Completed RC steps since the last structural base case (-1 before
    /// initialize(); a checkpoint restore keeps the saved value) — the k of
    /// the wavefront settledness certificate in refine/bounds.hpp. Budgeted
    /// steps (refine_budget_ops > 0) do not advance it: they may stop short
    /// of the local fixpoint the certificate's induction needs.
    std::int64_t wavefront_steps() const { return wavefront_k_; }

    /// The engine-side inputs of the closeness interval math, captured from
    /// the current state (see refine/bounds.hpp).
    BoundsParams bounds_params() const;

    /// Certified [lo, hi] enclosure of v's *converged* closeness score from
    /// its current row. Observer only (no charges); O(n) row scan.
    ClosenessInterval closeness_interval(VertexId v) const;

    /// Closeness scores from the current (possibly partial) DVs.
    /// Observer only: reads rank state directly, charges nothing.
    ClosenessScores closeness() const;

    /// Closeness computed the way the deployed system would: each rank
    /// reduces its own rows (charged compute), ships (vertex, score, reach)
    /// triples to rank 0 (priced messages), which assembles the result.
    /// Advances the simulated clock.
    ClosenessScores compute_closeness_distributed();

    /// Per-RC-step telemetry since construction.
    const std::vector<RcStepStats>& step_history() const { return step_history_; }

    /// Delivery events of event-driven RC steps, per step in the (time,
    /// source, seq) event order (empty unless EngineConfig::rc_async). Built
    /// on the driver thread, so it is identical for every executor count.
    const std::vector<DeliveryTraceEntry>& delivery_trace() const {
        return delivery_trace_;
    }

    /// The ingest window actually in effect (the adaptive resolution of the
    /// config's 0 sentinel, or the explicit configured value).
    std::size_t rc_ingest_window_bytes_effective() const {
        return rc_ingest_window_bytes_;
    }

    /// The engine's metrics registry (always present; enabled iff
    /// EngineConfig::enable_metrics, or by calling metrics().enable() before
    /// the phases of interest). Spans are stamped with the simulated clock.
    /// telemetry_json() / telemetry_csv() in core/telemetry.hpp render it.
    MetricsRegistry& metrics() { return *metrics_; }
    const MetricsRegistry& metrics() const { return *metrics_; }

    /// Existing vertices whose owner changed in the most recent
    /// repartition_add (0 after anywhere additions, which never move
    /// established vertices).
    std::size_t last_moved_vertices() const { return last_moved_vertices_; }

    // ---- checkpointing ------------------------------------------------------

    /// Serialize the full algorithmic state — graph, shard tables, each
    /// rank's local layout (row order and adjacency order), distance rows,
    /// pending prop/send columns (ascending), in-flight boundary messages,
    /// per-rank simulated clocks, the step and wavefront counters and the
    /// engine RNG — as checkpoint format v3 (see ARCHITECTURE.md,
    /// "Checkpoints"). Every section is streamed straight to `out` and sealed
    /// with a CRC32C. The anytime property turned into persistence: an
    /// interrupted analysis can resume later or on another machine. Throws
    /// CheckpointError if the stream fails or a message other than a
    /// boundary-DV update is in flight.
    void save_checkpoint(std::ostream& out) const;

    /// Rebuild an engine from a v3 checkpoint, exactly: the restored engine
    /// continues the saved schedule step for step — a quiescent save loads
    /// quiescent and takes zero RC steps, a mid-RC save finishes with the
    /// same distances, ops and sim_seconds() as the uninterrupted engine.
    /// Run history (step history, telemetry, query heat, migration-planner
    /// load) starts empty. `in` must be seekable (its size bounds every
    /// length before anything is allocated). Throws CheckpointError naming
    /// the defect on bad magic or version (v1 and v2 files included), a
    /// config mismatch (rank count, shards_per_rank, closeness variant), a
    /// CRC failure, a truncation, any semantically invalid value, or
    /// trailing bytes.
    static AnytimeEngine load_checkpoint(std::istream& in, EngineConfig config);

private:
    struct RankState {
        LocalSubgraph sg;
        DistanceStore store;
    };

    /// Mirror one edge change onto the sub-graphs of both endpoint owners
    /// (once when they coincide): change(sg) runs on u's owner, then v's.
    template <class Change>
    void distribute_edge(VertexId u, VertexId v, Change&& change) {
        const RankId ru = ownership_.owner(u);
        const RankId rv = ownership_.owner(v);
        change(ranks_[ru].sg);
        if (rv != ru) {
            change(ranks_[rv].sg);
        }
    }
    void distribute_edge(VertexId u, VertexId v, Weight w) {
        distribute_edge(u, v, [&](LocalSubgraph& sg) { sg.add_local_edge(u, v, w); });
    }
    /// Build every rank's sub-graph and (diagonal-only) distance rows from
    /// ownership_ and graph_, rows in adoption order.
    void build_rank_states();
    /// Run one per-rank phase body on the rank executors: fn(r) (or
    /// fn(r, sink)) is called once per rank, possibly concurrently — it must
    /// confine itself to rank-r state plus the rank-confined Cluster entry
    /// points — and returns rank r's ops. After the barrier the ops are added
    /// to `ops` and the spans pushed into `sink` are merged into the registry,
    /// both in ascending rank order, so totals and telemetry are identical
    /// for every executor count.
    void run_rank_phase(
        double& ops,
        const std::function<double(RankId, std::vector<MetricSpan>&)>& fn);
    void run_rank_phase(double& ops, const std::function<double(RankId)>& fn);
    /// Drain every rank's propagate worklist to the local fixpoint (charged,
    /// ops added to `ops`), then barrier.
    void settle_ranks(double& ops);
    /// A driver-side phase span on the simulated clock, stamped with the
    /// number of completed RC steps.
    auto phase_span(std::string_view name) {
        return ScopedSpan(*metrics_, name, -1, static_cast<std::int64_t>(rc_steps_),
                          [this] { return sim_seconds(); });
    }
    /// Decay query heat, export the refine.demand.* gauges, then invoke
    /// boundary_hook_ if set (phase entry points call this last).
    void fire_boundary_hook();
    /// Per-rank refine sweep orders for the starting RC step (empty vectors
    /// = the historical ascending order). Runs on the driver thread before
    /// the post phase; deterministic given the heat state.
    std::vector<std::vector<LocalId>> plan_refine_orders();
    /// Static per-shard weight (vertices + incident edges) the migration
    /// planner scales measured rank load by.
    std::vector<double> shard_static_weights() const;
    /// Deliver and ingest any in-flight boundary messages — posted or
    /// delivered but not yet received (a restored checkpoint can hold both) —
    /// before a call exchanges or receives: blocks addressed under the old
    /// shard map must land before rows move, and no other receive may drop or
    /// misparse them. Charged like a regular ingest phase; dispatches nothing
    /// when every box is empty.
    void drain_in_flight_updates();
    /// Every structural-update path calls this after its local re-settlement:
    /// resets the wavefront certificate to its k = 0 base case, recomputes
    /// the live w_min/w_max, and grows the demand state to the new vertex
    /// count.
    void note_structural_change();
    /// Recompute w_min_/w_max_ from the live graph.
    void refresh_weight_extremes();
    /// Returns the total ops charged (for the DD telemetry span).
    double charge_partition_cost(std::size_t vertices, std::size_t edges);
    /// Repartition-S's new owner of every vertex of the grown graph (the
    /// first `old_n` are the established ones), with the partitioning cost
    /// charged.
    std::vector<RankId> repartition_owners(std::size_t old_n);
    /// apply_deletion's update, under its "delete" span: structural change,
    /// invalidation cascade, deferred decreases, local re-settlement.
    ShrinkReport shrink_and_resettle(const ShrinkBatch& batch);
    /// Broadcast row(from) and apply the new/changed edge {from, to, w}
    /// everywhere it can bind immediately. Returns the ops charged.
    double broadcast_edge_update(VertexId from, VertexId to, Weight w);
    /// The engine's one row move (core/migrate.cpp): make `target` (over the
    /// current vertices) the ownership map, shipping every row whose owner
    /// changes with its adjacency, splicing it out of / into the rank states
    /// in place, re-marking what the move invalidates and draining the local
    /// sweep. Shard migration and Repartition-S both call it. Returns the
    /// ops charged.
    double move_rows(ShardOwnership target);
    /// Add a vertex batch's vertices and edges to graph_; returns the
    /// inserted edges as (lower, higher) pairs in batch order (a batch edge
    /// repeated as u v or v u is inserted once).
    std::vector<Edge> grow_graph(const GrowthBatch& batch);
    /// The anywhere integration of a batch already in graph_ (paper Figure 3,
    /// shared by every vertex-addition strategy): extend the ownership by the
    /// new vertices' owners (`assignment[i]` for the i-th), add their
    /// diagonal rows, distribute and broadcast each inserted edge, settle.
    /// Returns the ops charged.
    double integrate_batch(const GrowthBatch& batch, std::span<const Edge> inserted,
                           std::span<const RankId> assignment);

    DynamicGraph graph_;  // ground-truth mirror of the distributed graph
    EngineConfig config_;
    std::unique_ptr<Cluster> cluster_;
    // The rank executors (see backend_threads): every per-rank phase runs
    // as one parallel_for over [0, P). unique_ptr keeps the engine movable.
    std::unique_ptr<ThreadPool> executors_;
    Rng rng_;
    ShardOwnership ownership_;
    MigrationPlanner planner_;
    std::vector<RankState> ranks_;
    std::size_t rc_steps_{0};
    bool initialized_{false};
    EngineReport report_;
    std::vector<RcStepStats> step_history_;
    std::vector<DeliveryTraceEntry> delivery_trace_;
    std::size_t rc_ingest_window_bytes_{0};  // resolved from config at ctor
    std::unique_ptr<MetricsRegistry> metrics_;
    std::size_t last_moved_vertices_{0};
    std::function<void(AnytimeEngine&)> boundary_hook_;
    // unique_ptr because DemandTracker (SharedSlot member) is neither
    // copyable nor movable, and the engine keeps its defaulted moves.
    std::unique_ptr<DemandTracker> demand_;
    /// Wavefront certificate counter (see wavefront_steps()).
    std::int64_t wavefront_k_{-1};
    /// Conservative changed-rows answer (see take_changed_rows): true from
    /// construction and after every structural change, cleared by the drain.
    bool serve_rows_all_changed_{true};
    /// Live min/max edge weight (kInfinity / 0 on an edgeless graph),
    /// recomputed at every structural boundary.
    Weight w_min_{kInfinity};
    Weight w_max_{0};
};

}  // namespace aa
