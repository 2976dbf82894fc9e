#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "core/engine.hpp"

namespace aa {

namespace {

// Query latencies are host wall-clock (micro- to milliseconds); staleness is
// dominated by the driver's step cadence, so its buckets stretch further.
constexpr std::array<double, 11> kLatencyBounds{
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1};
constexpr std::array<double, 10> kStalenessWallBounds{
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0};
constexpr std::array<double, 6> kStalenessVersionBounds{0, 1, 2, 4, 8, 16};

/// Charge one publication to `stats`: `build` produced `frozen` from
/// `previous` (null for a first publication). Chunks compare by pointer
/// against the predecessor (shared = same backing storage); the bytes are
/// the values the builder actually produced, one (closeness, reachable, id)
/// triple per changed vertex.
void account_publication(PublicationStats& stats, const ResultSnapshot& frozen,
                         const ResultSnapshot* previous,
                         const SnapshotBuild& build) {
    ++stats.publications;
    if (build.every_row) {
        ++stats.full_publications;
    } else {
        ++stats.delta_publications;
    }
    stats.changed_rows += frozen.changed.size();
    stats.rows_scanned += build.rows_scanned;
    for (std::size_t c = 0; c < frozen.scores.num_chunks(); ++c) {
        const bool shared = previous != nullptr &&
                            c < previous->scores.num_chunks() &&
                            frozen.scores.chunk(c) == previous->scores.chunk(c);
        if (shared) {
            ++stats.chunks_shared;
        } else {
            ++stats.chunks_copied;
        }
    }
    stats.published_bytes += frozen.changed.size() *
                             (sizeof(Weight) + sizeof(std::size_t) +
                              sizeof(VertexId));
}

}  // namespace

std::string_view freshness_policy_name(FreshnessPolicy policy) {
    switch (policy) {
        case FreshnessPolicy::ServeStale: return "stale";
        case FreshnessPolicy::WaitForNextStep: return "next-step";
        case FreshnessPolicy::WaitForQuiescence: return "quiescence";
        case FreshnessPolicy::BoundedError: return "bounded-error";
    }
    return "?";
}

QueryService::QueryService(AnytimeEngine& engine, ServeConfig config)
    : engine_(engine),
      config_(config),
      epoch_(std::chrono::steady_clock::now()) {
    if (config_.enable_metrics) {
        metrics_.enable();
        latency_point_ = metrics_.histogram("serve.latency.point", kLatencyBounds);
        latency_batch_ = metrics_.histogram("serve.latency.batch", kLatencyBounds);
        latency_topk_ = metrics_.histogram("serve.latency.topk", kLatencyBounds);
        staleness_wall_ =
            metrics_.histogram("serve.staleness.wall", kStalenessWallBounds);
        staleness_versions_ = metrics_.histogram("serve.staleness.versions",
                                                 kStalenessVersionBounds);
        queries_counter_ = metrics_.counter("serve.queries");
        shed_counter_ = metrics_.counter("serve.shed");
    }
    // Tenant 0 inherits the service-wide limits, so single-tenant callers
    // never see a tenant surface at all.
    TenantConfig default_tenant;
    default_tenant.max_pending = config_.max_pending;
    auto tenants =
        std::make_shared<std::vector<std::shared_ptr<TenantState>>>();
    tenants->push_back(make_tenant("default", default_tenant));
    tenants_.store(std::move(tenants));

    engine_.set_boundary_hook([this](AnytimeEngine&) { publish(); });
    if (engine_.initialized()) {
        publish();
    }
}

QueryService::~QueryService() {
    engine_.set_boundary_hook(nullptr);
    close();
}

double QueryService::wall_now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

std::shared_ptr<QueryService::TenantState> QueryService::make_tenant(
    std::string name, TenantConfig config) {
    auto state = std::make_shared<TenantState>();
    state->name = std::move(name);
    state->config = config;
    if (config_.enable_metrics) {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        const std::string prefix = "serve.tenant." + state->name;
        state->latency = metrics_.histogram(prefix + ".latency", kLatencyBounds);
        state->staleness =
            metrics_.histogram(prefix + ".staleness", kStalenessWallBounds);
        state->shed_counter = metrics_.counter(prefix + ".shed");
    }
    return state;
}

TenantId QueryService::register_tenant(std::string name, TenantConfig config) {
    auto state = make_tenant(std::move(name), config);
    const auto current = tenants_.load();
    auto next = std::make_shared<std::vector<std::shared_ptr<TenantState>>>(
        *current);
    next->push_back(std::move(state));
    const TenantId id = next->size() - 1;
    tenants_.store(std::move(next));
    return id;
}

std::shared_ptr<QueryService::TenantState> QueryService::tenant_state(
    TenantId tenant) const {
    const auto tenants = tenants_.load();
    AA_ASSERT_MSG(tenants != nullptr && tenant < tenants->size(),
                  "unknown tenant id");
    return (*tenants)[tenant];
}

std::size_t QueryService::num_tenants() const {
    return tenants_.load()->size();
}

TenantCounters QueryService::tenant_counters(TenantId tenant) const {
    const auto state = tenant_state(tenant);
    TenantCounters out;
    out.name = state->name;
    out.config = state->config;
    out.served = state->served.load(std::memory_order_relaxed);
    out.shed = state->shed.load(std::memory_order_relaxed);
    out.slo_misses = state->slo_misses.load(std::memory_order_relaxed);
    return out;
}

void QueryService::update_shard_planes(
    const std::shared_ptr<const ResultSnapshot>& frozen) {
    const ShardOwnership& ownership = engine_.shard_ownership();
    const std::size_t n = frozen->scores.size();
    const std::size_t num_shards = ownership.num_shards();
    const std::size_t num_planes = num_shards + 1;  // + pseudo-shard
    // Shard membership moves only when the vertex count does (a migration
    // re-binds shards to ranks, never vertices to shards), so this is the
    // only event that invalidates the routing table and re-selects every
    // plane.
    const bool rebuild = !shard_table_built_ || shard_table_n_ != n ||
                         shard_members_.size() != num_planes;
    std::shared_ptr<ShardTable> fresh;
    std::shared_ptr<const ShardTable> table;
    std::vector<std::uint8_t> dirty(num_planes, rebuild ? 1 : 0);
    if (rebuild) {
        shard_members_.assign(num_planes, {});
        for (std::size_t v = 0; v < n; ++v) {
            const std::size_t s =
                v < ownership.num_vertices()
                    ? ownership.shard(static_cast<VertexId>(v))
                    : num_shards;
            shard_members_[s].push_back(static_cast<VertexId>(v));
        }
        shard_ranked_.assign(num_planes, {});
        shard_table_n_ = n;
        shard_table_built_ = true;

        fresh = std::make_shared<ShardTable>();
        fresh->shard_of.resize(n);
        for (std::size_t s = 0; s < num_planes; ++s) {
            for (const VertexId v : shard_members_[s]) {
                fresh->shard_of[v] = static_cast<ShardId>(s);
            }
        }
        fresh->planes.reserve(num_planes);
        for (std::size_t s = 0; s < num_planes; ++s) {
            fresh->planes.push_back(
                std::make_shared<SharedSlot<const ShardView>>());
        }
        table = fresh;
    } else {
        table = shard_table_.load();
        for (const VertexId v : frozen->changed) {
            dirty[table->shard_of[v]] = 1;
        }
    }
    // A plane none of whose members changed keeps its members' exact score
    // bits, so its ranking carries over; the rest re-select their exact
    // top-K. Every view is built before the first store: a merged top-k read
    // needs all planes on one snapshot, so the window in which they disagree
    // is the stores alone.
    const std::size_t served = config_.topk_maintained;
    std::size_t reselected = 0;
    std::vector<std::shared_ptr<const ShardView>> views;
    views.reserve(num_planes);
    for (std::size_t s = 0; s < num_planes; ++s) {
        std::vector<TopKEntry>& ranked = shard_ranked_[s];
        if (dirty[s] != 0) {
            ranked = topk_from_subset(*frozen, shard_members_[s], served);
            ++reselected;
        }
        auto view = std::make_shared<ShardView>();
        view->snapshot = frozen;
        view->topk = ranked;
        views.push_back(std::move(view));
    }
    for (std::size_t s = 0; s < num_planes; ++s) {
        table->planes[s]->store(std::move(views[s]));
    }
    topk_rebuilt_.fetch_add(reselected, std::memory_order_relaxed);
    topk_patched_.fetch_add(num_planes - reselected, std::memory_order_relaxed);
    if (rebuild) {
        // Published only after every plane holds a view, so routed readers
        // never find an empty slot behind a live table entry.
        shard_table_.store(std::move(fresh));
    }
}

void QueryService::publish() {
    const double t0 = wall_now();
    SnapshotBuild build = build_snapshot(engine_, next_version_,
                                         last_published_.get(),
                                         config_.enable_bounds);
    build.snapshot->published_wall = wall_now();
    std::shared_ptr<const ResultSnapshot> frozen = std::move(build.snapshot);
    account_publication(stats_, *frozen, last_published_.get(), build);

    // Shard planes first, then the global slot: a reader routed through a
    // plane may briefly observe a newer version than the global slot
    // (per-shard monotone reads), while waiters woken below — who re-check
    // the global slot — always find the new snapshot already there.
    update_shard_planes(frozen);
    store_.publish(frozen);
    ++next_version_;
    last_published_ = frozen;
    publications_.fetch_add(1, std::memory_order_relaxed);

    {
        // Empty critical section: pairs the publication with the waiters'
        // predicate re-check so no wakeup can slip between their check and
        // their wait.
        std::lock_guard<std::mutex> lock(wait_mutex_);
    }
    wait_cv_.notify_all();

    if (config_.enable_metrics) {
        std::lock_guard<std::mutex> lock(metrics_mutex_);
        metrics_.record_span(stamp_span(
            "serve.publish", -1, static_cast<std::int64_t>(frozen->rc_step), t0,
            wall_now(), 0,
            {{"version", std::to_string(frozen->version)},
             {"changed", std::to_string(frozen->changed.size())},
             {"quiescent", frozen->quiescent ? "1" : "0"},
             {"delta", build.every_row ? "0" : "1"}}));
    }
    if (on_publish_) {
        on_publish_(*frozen);
    }
}

void QueryService::set_on_publish(
    std::function<void(const ResultSnapshot&)> on_publish) {
    on_publish_ = std::move(on_publish);
}

void QueryService::set_step_driver(std::function<bool()> driver) {
    step_driver_ = std::move(driver);
}

void QueryService::close() {
    {
        std::lock_guard<std::mutex> lock(wait_mutex_);
        closed_ = true;
    }
    wait_cv_.notify_all();
}

bool QueryService::satisfied(FreshnessPolicy policy,
                             const ResultSnapshot* snapshot,
                             std::uint64_t arrival_version) {
    if (snapshot == nullptr) {
        return false;
    }
    switch (policy) {
        case FreshnessPolicy::ServeStale:
            return true;
        case FreshnessPolicy::WaitForNextStep:
            return snapshot->version > arrival_version;
        case FreshnessPolicy::WaitForQuiescence:
            return snapshot->quiescent;
        case FreshnessPolicy::BoundedError:
            return snapshot->has_bounds;
    }
    return false;
}

std::shared_ptr<const ResultSnapshot> QueryService::shard_route(
    VertexId v) const {
    const auto table = shard_table_.load();
    if (table == nullptr || v >= table->shard_of.size()) {
        return nullptr;
    }
    const auto view = table->planes[table->shard_of[v]]->load();
    return view != nullptr ? view->snapshot : nullptr;
}

std::shared_ptr<const ResultSnapshot> QueryService::admit(
    FreshnessPolicy policy, TenantState& tenant, QueryStatus& status) {
    auto current = store_.current();
    const std::uint64_t arrival = current ? current->version : 0;
    if (satisfied(policy, current.get(), arrival)) {
        status = QueryStatus::Ok;
        return current;
    }
    if (policy == FreshnessPolicy::ServeStale ||
        policy == FreshnessPolicy::BoundedError) {
        // Neither policy ever waits. ServeStale fails only before the first
        // publication; BoundedError also fails when snapshots carry no
        // bounds — a static configuration (enable_bounds) that waiting
        // could never fix.
        status = QueryStatus::Unavailable;
        return nullptr;
    }

    if (step_driver_) {
        // Synchronous mode: advance the engine inline. Each successful step
        // publishes through the boundary hook; when the engine cannot step
        // (already quiescent), one out-of-band publication still produces a
        // fresh — and then necessarily quiescent — snapshot.
        while (true) {
            const bool progressed = step_driver_();
            if (!progressed) {
                publish();
            }
            auto snapshot = store_.current();
            if (satisfied(policy, snapshot.get(), arrival)) {
                status = QueryStatus::Ok;
                return snapshot;
            }
            if (!progressed) {
                status = QueryStatus::Unavailable;
                return nullptr;
            }
        }
    }

    // Concurrent mode: bounded wait for the driver thread's publications.
    // The bound is the querying tenant's alone — shedding here can neither
    // consume nor release any other tenant's waiting capacity.
    std::unique_lock<std::mutex> lock(wait_mutex_);
    if (closed_) {
        status = QueryStatus::Unavailable;
        return nullptr;
    }
    if (tenant.pending >= tenant.config.max_pending) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        tenant.shed.fetch_add(1, std::memory_order_relaxed);
        status = QueryStatus::Shed;
        return nullptr;
    }
    ++tenant.pending;
    wait_cv_.wait(lock, [&] {
        if (closed_) {
            return true;
        }
        const auto snapshot = store_.current();
        return satisfied(policy, snapshot.get(), arrival);
    });
    --tenant.pending;
    lock.unlock();

    auto snapshot = store_.current();
    if (satisfied(policy, snapshot.get(), arrival)) {
        status = QueryStatus::Ok;
        return snapshot;
    }
    status = QueryStatus::Unavailable;  // closed before the policy was met
    return nullptr;
}

ResponseMeta QueryService::make_meta(const ResultSnapshot& snapshot) const {
    ResponseMeta meta;
    meta.status = QueryStatus::Ok;
    meta.version = snapshot.version;
    meta.rc_step = snapshot.rc_step;
    meta.sim_seconds = snapshot.sim_seconds;
    meta.quiescent = snapshot.quiescent;
    meta.frac_unknown = snapshot.frac_unknown;
    // A shard plane can run ahead of the global slot mid-publication, so
    // clamp instead of underflowing: a newer-than-global answer is fresh.
    const std::uint64_t latest = store_.latest_version();
    meta.staleness_versions =
        latest > snapshot.version ? latest - snapshot.version : 0;
    meta.staleness_wall = wall_now() - snapshot.published_wall;
    return meta;
}

bool QueryService::certify_topk(const ResultSnapshot& snapshot,
                                const std::vector<TopKEntry>& entries) {
    // The *set* is certified once every member's certified lower bound
    // strictly exceeds every non-member's upper bound: no remaining
    // refinement can move a non-member above a member. Strictness means a
    // tie at the k-th score never certifies — correctly, since the set is
    // genuinely ambiguous there.
    const std::size_t n = snapshot.bound_lo.size();
    std::vector<std::uint8_t> member(n, 0);
    double weakest_member = kInfinity;
    for (const TopKEntry& e : entries) {
        if (e.vertex < n) {
            member[e.vertex] = 1;
            weakest_member = std::min(weakest_member, snapshot.bound_lo[e.vertex]);
        }
    }
    double strongest_outsider = -kInfinity;
    for (std::size_t v = 0; v < n; ++v) {
        if (!member[v]) {
            strongest_outsider =
                std::max(strongest_outsider, snapshot.bound_hi[v]);
        }
    }
    return entries.size() >= n || weakest_member > strongest_outsider;
}

void QueryService::finish_query(TenantState& tenant,
                                MetricsRegistry::Handle latency_histogram,
                                double latency_seconds,
                                const ResponseMeta& meta) {
    if (meta.status == QueryStatus::Ok) {
        tenant.served.fetch_add(1, std::memory_order_relaxed);
        if (meta.staleness_wall > tenant.config.freshness_slo) {
            tenant.slo_misses.fetch_add(1, std::memory_order_relaxed);
        }
    }
    if (!config_.enable_metrics) {
        return;
    }
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    metrics_.add(queries_counter_, 1);
    if (meta.status == QueryStatus::Shed) {
        metrics_.add(shed_counter_, 1);
        if (tenant.shed_counter != MetricsRegistry::kNullHandle) {
            metrics_.add(tenant.shed_counter, 1);
        }
        return;
    }
    if (meta.status != QueryStatus::Ok) {
        return;
    }
    metrics_.observe(latency_histogram, latency_seconds);
    metrics_.observe(staleness_wall_, meta.staleness_wall);
    metrics_.observe(staleness_versions_,
                     static_cast<double>(meta.staleness_versions));
    if (tenant.latency != MetricsRegistry::kNullHandle) {
        metrics_.observe(tenant.latency, latency_seconds);
        metrics_.observe(tenant.staleness, meta.staleness_wall);
    }
}

PointResult QueryService::point(VertexId v, FreshnessPolicy policy,
                                TenantId tenant_id) {
    const double t0 = wall_now();
    const auto tenant = tenant_state(tenant_id);
    engine_.demand().record(v, tenant->config.demand_weight);
    PointResult result;
    result.vertex = v;
    QueryStatus status = QueryStatus::Unavailable;
    std::shared_ptr<const ResultSnapshot> snapshot;
    if (policy == FreshnessPolicy::ServeStale ||
        policy == FreshnessPolicy::BoundedError) {
        // Immediate reads route through the plane owning v (per-shard
        // monotone reads); anything the planes cannot serve falls back to
        // the global slot below.
        snapshot = shard_route(v);
        if (snapshot != nullptr &&
            !satisfied(policy, snapshot.get(), snapshot->version)) {
            snapshot = nullptr;
        }
        if (snapshot != nullptr) {
            status = QueryStatus::Ok;
        }
    }
    if (snapshot == nullptr) {
        snapshot = admit(policy, *tenant, status);
    }
    if (snapshot == nullptr) {
        result.meta.status = status;
        finish_query(*tenant, latency_point_, wall_now() - t0, result.meta);
        return result;
    }
    result.meta = make_meta(*snapshot);
    if (v < snapshot->scores.size()) {
        result.closeness = snapshot->scores.closeness(v);
        result.reachable = snapshot->scores.reachable(v);
    }
    if (snapshot->has_bounds && v < snapshot->bound_lo.size()) {
        result.bound_lo = snapshot->bound_lo[v];
        result.bound_hi = snapshot->bound_hi[v];
        result.exact = snapshot->bound_exact[v] != 0;
    }
    // Vertices newer than the snapshot read as (0, 0): the snapshot simply
    // predates them, which the version on the response makes diagnosable.
    finish_query(*tenant, latency_point_, wall_now() - t0, result.meta);
    return result;
}

BatchResult QueryService::batch(std::span<const VertexId> vertices,
                                FreshnessPolicy policy, TenantId tenant_id) {
    const double t0 = wall_now();
    const auto tenant = tenant_state(tenant_id);
    for (const VertexId v : vertices) {
        engine_.demand().record(v, tenant->config.demand_weight);
    }
    BatchResult result;
    QueryStatus status = QueryStatus::Unavailable;
    std::shared_ptr<const ResultSnapshot> snapshot;
    if (!vertices.empty() && (policy == FreshnessPolicy::ServeStale ||
                              policy == FreshnessPolicy::BoundedError)) {
        // One plane serves the whole batch (its snapshot is full-width), so
        // the batch stays consistent within a single snapshot. Routed by the
        // first vertex's shard: that is the vertex whose freshness the
        // caller most plausibly cares about.
        snapshot = shard_route(vertices.front());
        if (snapshot != nullptr &&
            !satisfied(policy, snapshot.get(), snapshot->version)) {
            snapshot = nullptr;
        }
        if (snapshot != nullptr) {
            status = QueryStatus::Ok;
        }
    }
    if (snapshot == nullptr) {
        snapshot = admit(policy, *tenant, status);
    }
    if (snapshot == nullptr) {
        result.meta.status = status;
        finish_query(*tenant, latency_batch_, wall_now() - t0, result.meta);
        return result;
    }
    result.meta = make_meta(*snapshot);
    result.closeness.reserve(vertices.size());
    result.reachable.reserve(vertices.size());
    const std::size_t known = snapshot->scores.size();
    for (const VertexId v : vertices) {
        result.closeness.push_back(v < known ? snapshot->scores.closeness(v)
                                             : 0);
        result.reachable.push_back(v < known ? snapshot->scores.reachable(v)
                                             : 0);
    }
    if (snapshot->has_bounds) {
        result.bound_lo.reserve(vertices.size());
        result.bound_hi.reserve(vertices.size());
        for (const VertexId v : vertices) {
            const bool in = v < snapshot->bound_lo.size();
            result.bound_lo.push_back(in ? snapshot->bound_lo[v] : 0);
            result.bound_hi.push_back(in ? snapshot->bound_hi[v] : 0);
        }
    }
    finish_query(*tenant, latency_batch_, wall_now() - t0, result.meta);
    return result;
}

TopKResult QueryService::topk(std::size_t k, FreshnessPolicy policy,
                              TenantId tenant_id) {
    const double t0 = wall_now();
    const auto tenant = tenant_state(tenant_id);
    TopKResult result;
    QueryStatus status = QueryStatus::Unavailable;
    std::shared_ptr<const ResultSnapshot> snapshot;
    if (policy == FreshnessPolicy::ServeStale && k <= config_.topk_maintained) {
        // Merge the per-shard partials at read time. Sound because each
        // partial is the exact top-min(K, |shard|) of its members under the
        // strict total ranking order, so the union contains the global
        // k-prefix; bit-identical to the full selection. Requires every plane
        // to hold the same snapshot — mid-publication disagreement falls back
        // to a full selection on the global slot below.
        const auto table = shard_table_.load();
        if (table != nullptr && !table->planes.empty()) {
            std::vector<std::shared_ptr<const ShardView>> views;
            views.reserve(table->planes.size());
            bool consistent = true;
            for (const auto& plane : table->planes) {
                auto view = plane->load();
                if (view == nullptr ||
                    (!views.empty() &&
                     view->snapshot != views.front()->snapshot)) {
                    consistent = false;
                    break;
                }
                views.push_back(std::move(view));
            }
            if (consistent) {
                snapshot = views.front()->snapshot;
                std::vector<TopKEntry> pool;
                for (const auto& view : views) {
                    pool.insert(pool.end(), view->topk.begin(),
                                view->topk.end());
                }
                const std::size_t want = std::min(k, pool.size());
                std::partial_sort(pool.begin(), pool.begin() + want,
                                  pool.end(), topk_outranks);
                pool.resize(want);
                result.entries = std::move(pool);
                status = QueryStatus::Ok;
            }
        }
    }
    if (snapshot == nullptr) {
        snapshot = admit(policy, *tenant, status);
        if (snapshot == nullptr) {
            result.meta.status = status;
            finish_query(*tenant, latency_topk_, wall_now() - t0, result.meta);
            return result;
        }
        result.entries = topk_from_snapshot(*snapshot, k);
    }
    result.meta = make_meta(*snapshot);
    const double weight = tenant->config.demand_weight;
    for (const TopKEntry& e : result.entries) {
        engine_.demand().record(e.vertex, weight);
    }
    if (snapshot->has_bounds && !result.entries.empty()) {
        result.certified = certify_topk(*snapshot, result.entries);
    }
    finish_query(*tenant, latency_topk_, wall_now() - t0, result.meta);
    return result;
}

std::uint64_t QueryService::publications() const {
    return publications_.load(std::memory_order_relaxed);
}

std::uint64_t QueryService::shed_count() const {
    return shed_.load(std::memory_order_relaxed);
}

std::size_t QueryService::topk_patched() const {
    return topk_patched_.load(std::memory_order_relaxed);
}

std::size_t QueryService::topk_rebuilt() const {
    return topk_rebuilt_.load(std::memory_order_relaxed);
}

MetricsRegistry QueryService::metrics_copy() const {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    return metrics_;
}

}  // namespace aa
