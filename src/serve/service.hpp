// QueryService: the anytime query-serving layer over one AnytimeEngine.
//
// One *driver* thread owns the engine (initialize / rc_step / additions);
// the service hooks the engine's boundary callback so every RC step and
// add-phase boundary publishes a fresh immutable ResultSnapshot (see
// serve/snapshot.hpp). Any number of *reader* threads issue point, batch and
// top-k closeness queries against the published snapshots — they never touch
// engine state and never block the RC loop.
//
// Publication is O(changed): at every boundary the service calls the one
// snapshot builder (serve/snapshot.hpp), which re-sums only the rows the
// engine touched since the last boundary (AnytimeEngine::take_changed_rows)
// and patches the predecessor's copy-on-write chunks, so a boundary that
// changed c vertices costs O(c·n) row scans and copies only the chunks
// containing them. The builder scans every row instead when there is no
// same-n predecessor, when snapshots carry bounds, or when the engine
// reports every row changed; the row set changes the cost, never the
// result. Every published score is bit-identical to closeness_from_matrix
// over the engine's full_distance_matrix() at the same boundary (a lattice
// test checks every publication against it). PublicationStats counts the
// work (rows scanned, bytes published, chunks copied vs shared) so the
// saving is measurable, not assumed.
//
// One read slot: every query, whatever its freshness policy, takes its
// snapshot from the global SnapshotStore slot (admit()), so a reader's
// successive responses never go backwards in version, across all vertices
// and query shapes (globally monotone reads). Each snapshot carries its
// exact top-K (ServeConfig::topk_maintained, selected by the builder or
// carried over from an unchanged predecessor), so a top-k read with k <= K
// copies a prefix of it; larger k select over the snapshot's scores.
//
// Freshness policies (per query):
//   ServeStale        — answer from the current snapshot immediately.
//   WaitForNextStep   — answer from the first snapshot published after the
//                       query arrived (one more engine boundary of progress).
//   WaitForQuiescence — answer only from a quiescent snapshot (exact APSP).
//   BoundedError      — answer immediately like ServeStale, but attach the
//                       certified closeness interval [bound_lo, bound_hi]
//                       that contains the converged score (Unavailable when
//                       the service was not configured with enable_bounds).
//
// Multi-tenant admission: every query is issued on behalf of a tenant
// (kDefaultTenant unless stated). Each tenant has its own bounded pending
// set (`TenantConfig::max_pending`): a waiting query from a tenant whose set
// is full is shed immediately (QueryStatus::Shed) *without* touching any
// other tenant's capacity — one tenant flooding the service cannot starve
// another's waiters. Tenants also carry a freshness SLO (served responses
// staler than `freshness_slo` wall-seconds count as SLO misses, observable
// per tenant) and a demand weight that scales the vertices they query in the
// engine's DemandTracker, so hot tenants steer demand-driven refinement
// harder. ServeStale queries never wait and are never shed.
//
// Two execution modes for the waiting policies:
//   * concurrent (default): the reader blocks on a condition variable until
//     the driver thread's next publication satisfies the policy (or the
//     service is closed).
//   * synchronous: a single-threaded caller (scenario_runner) installs a
//     step driver via set_step_driver(); unsatisfied queries advance the
//     engine inline instead of blocking.
//
// Every response carries its snapshot version, the engine progress metadata
// of that snapshot, and a staleness bound (publications that happened after
// the served snapshot, plus the snapshot's wall-clock age). Serving metrics
// (latency/staleness histograms, shed counters, publication spans, and
// per-tenant serve.tenant.<name>.* series) are recorded in the service's own
// internally-locked MetricsRegistry under `serve.*` names.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "serve/snapshot.hpp"
#include "serve/topk.hpp"

namespace aa {

class AnytimeEngine;

enum class FreshnessPolicy {
    ServeStale,
    WaitForNextStep,
    WaitForQuiescence,
    /// Never waits; returns (score, certified error interval) pairs from the
    /// current snapshot. Requires snapshots built with bounds
    /// (ServeConfig::enable_bounds) — Unavailable otherwise.
    BoundedError,
};

/// Human-readable policy name
/// ("stale" / "next-step" / "quiescence" / "bounded-error").
std::string_view freshness_policy_name(FreshnessPolicy policy);

enum class QueryStatus {
    /// Served from a snapshot satisfying the policy.
    Ok,
    /// Rejected by admission control: the tenant's pending-query set was full.
    Shed,
    /// The policy cannot be satisfied: service closed while waiting, no
    /// snapshot exists yet under ServeStale, or the synchronous step driver
    /// ran out of progress.
    Unavailable,
};

/// Tenant identifier: a dense index assigned by register_tenant(). Tenant 0
/// always exists and inherits ServeConfig's service-wide limits.
using TenantId = std::size_t;
inline constexpr TenantId kDefaultTenant = 0;

/// Per-tenant admission and freshness contract.
struct TenantConfig {
    /// Bound on this tenant's concurrently *waiting* queries before its
    /// further waiting queries are shed. Independent per tenant: exhausting
    /// one tenant's budget never sheds (or delays) another's queries.
    std::size_t max_pending{64};
    /// Freshness SLO in wall-seconds: an Ok response whose staleness_wall
    /// exceeds this counts as an SLO miss for the tenant (observable via
    /// tenant_counters / serve.tenant.<name>.staleness). Infinity = no SLO.
    double freshness_slo{std::numeric_limits<double>::infinity()};
    /// Weight applied when recording this tenant's queried vertices into the
    /// engine's DemandTracker: a tenant with weight w counts as w queries per
    /// query when demand-driven refinement ranks vertices.
    double demand_weight{1.0};
};

/// Point-in-time copy of one tenant's identity and counters.
struct TenantCounters {
    std::string name;
    TenantConfig config;
    std::uint64_t served{0};
    std::uint64_t shed{0};
    std::uint64_t slo_misses{0};
};

/// Accumulated publication work. A publication is *full* when the builder
/// scanned every row and a *delta* when it scanned only the touched rows.
/// `published_bytes` charges the values the builder actually produced: one
/// closeness, reachable and vertex id per changed vertex. Chunk counters
/// compare each published snapshot's chunk pointers against its
/// predecessor's (shared = same backing storage).
struct PublicationStats {
    std::uint64_t publications{0};
    std::uint64_t delta_publications{0};
    std::uint64_t full_publications{0};
    /// Sum of changed-list lengths across publications.
    std::size_t changed_rows{0};
    /// Distance-matrix rows re-summed (full: n per publication).
    std::size_t rows_scanned{0};
    std::size_t chunks_copied{0};
    std::size_t chunks_shared{0};
    std::size_t published_bytes{0};
};

struct ServeConfig {
    /// K of the top-K every snapshot carries; top-k queries with k <= this
    /// copy a prefix of it, larger ones fall back to a full selection on the
    /// snapshot.
    std::size_t topk_maintained{10};
    /// Bound on concurrently *waiting* queries of the default tenant before
    /// shedding (TenantConfig::max_pending of tenant 0; additional tenants
    /// bring their own).
    std::size_t max_pending{64};
    /// Record serve.* metrics (histograms, counters, publish spans).
    bool enable_metrics{true};
    /// Capture certified closeness intervals (refine/bounds.hpp) into every
    /// snapshot. Required by the BoundedError policy and by top-k
    /// certification; costs one interval computation per row per
    /// publication, so off by default. Every publication then scans every
    /// row (the wavefront certificate tightens unchanged rows' bounds every
    /// step).
    bool enable_bounds{false};
};

/// Response metadata shared by every query shape.
struct ResponseMeta {
    QueryStatus status{QueryStatus::Unavailable};
    /// Snapshot the answer was read from (0 when status != Ok).
    std::uint64_t version{0};
    std::size_t rc_step{0};
    double sim_seconds{0};
    bool quiescent{false};
    double frac_unknown{0};
    /// Publications that had already superseded the served snapshot when the
    /// response was assembled (0 = served the latest).
    std::uint64_t staleness_versions{0};
    /// Wall-clock age of the served snapshot at response time, seconds.
    double staleness_wall{0};
};

struct PointResult {
    ResponseMeta meta;
    VertexId vertex{0};
    Weight closeness{0};
    std::size_t reachable{0};
    /// Certified interval containing the converged closeness score and
    /// whether it has already collapsed onto it. Meaningful iff the served
    /// snapshot carried bounds (ServeConfig::enable_bounds); [0, 0] / false
    /// otherwise.
    double bound_lo{0};
    double bound_hi{0};
    bool exact{false};
};

struct BatchResult {
    ResponseMeta meta;
    /// Parallel to the queried vertex list; all values from one snapshot.
    std::vector<Weight> closeness;
    std::vector<std::size_t> reachable;
    /// Certified intervals parallel to the vertex list; empty unless the
    /// served snapshot carried bounds (ServeConfig::enable_bounds).
    std::vector<double> bound_lo;
    std::vector<double> bound_hi;
};

struct TopKResult {
    ResponseMeta meta;
    std::vector<TopKEntry> entries;
    /// True iff the returned *set* of vertices is provably the converged
    /// top-k: every member's certified lower bound strictly exceeds every
    /// non-member's certified upper bound. Only a bounds-carrying snapshot
    /// can certify; ties at the k-th score never do (the set is genuinely
    /// ambiguous there).
    bool certified{false};
};

class QueryService {
public:
    /// Attaches to `engine` (installs its boundary hook) and, if the engine
    /// is already initialized, publishes snapshot #1 immediately. The engine
    /// must outlive the service; the service detaches the hook on
    /// destruction.
    explicit QueryService(AnytimeEngine& engine, ServeConfig config = {});
    ~QueryService();

    QueryService(const QueryService&) = delete;
    QueryService& operator=(const QueryService&) = delete;

    // ---- driver side (the thread stepping the engine) ---------------------

    /// Build and publish a snapshot of the engine's current state, patched
    /// onto the previous snapshot (see build_snapshot for the row set).
    /// Invoked automatically at engine boundaries through the hook; callable
    /// directly for an extra out-of-band publication.
    void publish();

    /// Observer called on the driver thread after every publication, with
    /// the engine guaranteed idle — tests use it to capture ground truth at
    /// exactly the published boundary.
    void set_on_publish(
        std::function<void(const ResultSnapshot&)> on_publish);

    /// Synchronous mode: instead of blocking, unsatisfied waiting queries
    /// call `driver` (which should advance the engine, e.g. one rc_step) and
    /// re-check; `driver` returning false means no more progress is
    /// possible. Only for single-threaded use.
    void set_step_driver(std::function<bool()> driver);

    /// Register a tenant; returns its id for the per-tenant query overloads.
    /// Driver thread only (readers may query concurrently; registrations
    /// must not race each other).
    TenantId register_tenant(std::string name, TenantConfig config);

    /// Wake all waiters with QueryStatus::Unavailable and refuse future
    /// waiting; ServeStale queries keep being served. Idempotent.
    void close();

    // ---- reader side (any thread) -----------------------------------------
    //
    // Every query records its vertices (top-k: the returned ones) in the
    // engine's DemandTracker, scaled by the tenant's demand_weight; recording
    // is wait-free and, under the default Uniform refine policy, leaves the
    // engine schedule untouched. The overloads without a policy serve stale.

    PointResult point(VertexId v, FreshnessPolicy policy, TenantId tenant);
    PointResult point(VertexId v, FreshnessPolicy policy) {
        return point(v, policy, kDefaultTenant);
    }
    PointResult point(VertexId v) {
        return point(v, FreshnessPolicy::ServeStale, kDefaultTenant);
    }
    BatchResult batch(std::span<const VertexId> vertices,
                      FreshnessPolicy policy, TenantId tenant);
    BatchResult batch(std::span<const VertexId> vertices,
                      FreshnessPolicy policy) {
        return batch(vertices, policy, kDefaultTenant);
    }
    BatchResult batch(std::span<const VertexId> vertices) {
        return batch(vertices, FreshnessPolicy::ServeStale, kDefaultTenant);
    }
    TopKResult topk(std::size_t k, FreshnessPolicy policy, TenantId tenant);
    TopKResult topk(std::size_t k, FreshnessPolicy policy) {
        return topk(k, policy, kDefaultTenant);
    }
    TopKResult topk(std::size_t k) {
        return topk(k, FreshnessPolicy::ServeStale, kDefaultTenant);
    }

    /// The latest snapshot (wait-free; null before the first publication).
    std::shared_ptr<const ResultSnapshot> snapshot() const {
        return store_.current();
    }
    const SnapshotStore& store() const { return store_; }

    // ---- introspection ----------------------------------------------------

    std::uint64_t publications() const;
    std::uint64_t shed_count() const;
    /// Snapshot top-K counters over publications: topk_patched() counts
    /// publications that carried the predecessor's top-K over (no score
    /// changed), topk_rebuilt() those that re-selected it.
    std::size_t topk_patched() const;
    std::size_t topk_rebuilt() const;
    /// Accumulated publication work counters. Mutated on the driver thread
    /// during publish(); read it from the driver thread or after the driver
    /// has gone idle.
    PublicationStats publication_stats() const { return stats_; }
    std::size_t num_tenants() const;
    /// Counter snapshot of one tenant (any thread).
    TenantCounters tenant_counters(TenantId tenant) const;
    /// Seconds since service construction on the service's wall clock (the
    /// epoch of ResultSnapshot::published_wall).
    double wall_now() const;
    /// Thread-safe copy of the serve.* metrics registry.
    MetricsRegistry metrics_copy() const;

    const ServeConfig& config() const { return config_; }

private:
    struct TenantState {
        std::string name;
        TenantConfig config;
        /// Waiting queries of this tenant; guarded by wait_mutex_.
        std::size_t pending{0};
        std::atomic<std::uint64_t> served{0};
        std::atomic<std::uint64_t> shed{0};
        std::atomic<std::uint64_t> slo_misses{0};
        MetricsRegistry::Handle latency{MetricsRegistry::kNullHandle};
        MetricsRegistry::Handle staleness{MetricsRegistry::kNullHandle};
        MetricsRegistry::Handle shed_counter{MetricsRegistry::kNullHandle};
    };

    std::shared_ptr<TenantState> make_tenant(std::string name,
                                             TenantConfig config);
    std::shared_ptr<TenantState> tenant_state(TenantId tenant) const;

    /// Resolve the snapshot a query with `policy` should be served from;
    /// handles waiting, the step driver and per-tenant admission control.
    /// Null result means the query ends with `status` (Shed / Unavailable).
    std::shared_ptr<const ResultSnapshot> admit(FreshnessPolicy policy,
                                                TenantState& tenant,
                                                QueryStatus& status);
    static bool satisfied(FreshnessPolicy policy,
                          const ResultSnapshot* snapshot,
                          std::uint64_t arrival_version);
    ResponseMeta make_meta(const ResultSnapshot& snapshot) const;
    /// Certify `entries` as the converged top-k set from a bounds-carrying
    /// snapshot (see TopKResult::certified).
    static bool certify_topk(const ResultSnapshot& snapshot,
                             const std::vector<TopKEntry>& entries);
    void finish_query(TenantState& tenant,
                      MetricsRegistry::Handle latency_histogram,
                      double latency_seconds, const ResponseMeta& meta);

    AnytimeEngine& engine_;
    ServeConfig config_;
    std::chrono::steady_clock::time_point epoch_;
    SnapshotStore store_;
    SharedSlot<const std::vector<std::shared_ptr<TenantState>>> tenants_;

    // Driver-thread-only state (publication path).
    std::uint64_t next_version_{1};
    std::shared_ptr<const ResultSnapshot> last_published_;
    PublicationStats stats_;
    std::function<void(const ResultSnapshot&)> on_publish_;
    std::function<bool()> step_driver_;

    // Waiting / admission state.
    mutable std::mutex wait_mutex_;
    std::condition_variable wait_cv_;
    bool closed_{false};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> publications_{0};
    // Top-K carry-over / re-selection counters, readable from any thread.
    std::atomic<std::size_t> topk_patched_{0};
    std::atomic<std::size_t> topk_rebuilt_{0};

    // serve.* metrics, internally locked (readers record concurrently).
    mutable std::mutex metrics_mutex_;
    MetricsRegistry metrics_;
    MetricsRegistry::Handle latency_point_{MetricsRegistry::kNullHandle};
    MetricsRegistry::Handle latency_batch_{MetricsRegistry::kNullHandle};
    MetricsRegistry::Handle latency_topk_{MetricsRegistry::kNullHandle};
    MetricsRegistry::Handle staleness_wall_{MetricsRegistry::kNullHandle};
    MetricsRegistry::Handle staleness_versions_{MetricsRegistry::kNullHandle};
    MetricsRegistry::Handle queries_counter_{MetricsRegistry::kNullHandle};
    MetricsRegistry::Handle shed_counter_{MetricsRegistry::kNullHandle};
};

}  // namespace aa
