// Checkpoint format v3: exact, streamed, checksummed engine persistence.
//
// A checkpoint is a sequence of sections, each streamed straight to (or
// from) the caller's stream and sealed with the CRC32C of its own bytes.
// Integers and doubles are stored in host little-endian byte order.
//
//   header  u64 magic, u32 version (3), u32 ranks, u32 shards_per_rank,
//           u8 closeness variant
//   graph   u64 n; per vertex: u64 degree, degree x (u32 neighbour, f64 weight)
//   shards  u64 n, n x u32 shard_of; u64 S, S x u32 shard_map
//   layout  per rank: u64 rows; per row in local order: u32 vertex,
//           u64 degree, degree x (u32 neighbour, f64 weight)
//   rows    per rank, per row in local order: n x f64
//   marks   per rank, per row in local order: u64 k, k x u32 pending prop
//           columns; u64 k, k x u32 pending send columns (written
//           ascending, read in any order)
//   state   u64 rc_steps, i64 wavefront_k, 4 x u64 RNG state, P x f64 clocks
//   mail    u64 count; per in-flight boundary-DV update (the only message
//           kind alive between engine calls): u8 delivered, u32 from,
//           u32 to, u64 bytes, payload
//
// v1 and v2 files are rejected by version.
//
// Every length is checked against the bytes left in the stream before
// anything is sized by it, and every value is validated before an engine
// structure is built from it, so a malformed stream ends in CheckpointError
// and never in an abort, an out-of-bounds access or a runaway allocation.
// See ARCHITECTURE.md, "Checkpoints".
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "common/crc32c.hpp"
#include "core/engine.hpp"
#include "core/rc.hpp"
#include "runtime/message.hpp"

namespace aa {
namespace {

static_assert(std::endian::native == std::endian::little,
              "checkpoints store host byte order, which must be little-endian");

constexpr std::uint64_t kCheckpointMagic = 0xAA00C4EC4901DEAD;
constexpr std::uint32_t kCheckpointVersion = 3;

[[noreturn]] void reject(const std::string& what) {
    throw CheckpointError("checkpoint rejected: " + what);
}

std::string str(std::uint64_t value) { return std::to_string(value); }

/// Streams one section at a time to the output, folding every byte into the
/// running CRC32C that seal() appends.
class SectionWriter {
public:
    explicit SectionWriter(std::ostream& out) : out_(out) {}

    void bytes(const void* data, std::size_t size) {
        if (size == 0) {
            return;  // an empty array's data() may be null
        }
        out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
        crc_ = crc32c({static_cast<const std::byte*>(data), size}, crc_);
    }
    template <typename T>
    void put(const T& value) {
        bytes(&value, sizeof(T));
    }
    template <typename T>
    void put_array(std::span<const T> values) {
        put(static_cast<std::uint64_t>(values.size()));
        bytes(values.data(), values.size_bytes());
    }
    void seal() {
        const std::uint32_t crc = crc_;
        out_.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
        crc_ = 0;
    }

private:
    std::ostream& out_;
    std::uint32_t crc_{0};
};

/// The reading mirror of SectionWriter. Knows how many bytes the stream
/// still holds, so no declared length can outrun the input.
class SectionReader {
public:
    explicit SectionReader(std::istream& in) : in_(in) {
        const std::istream::pos_type here = in.tellg();
        if (here == std::istream::pos_type(-1)) {
            reject("the input stream is not seekable");
        }
        in.seekg(0, std::ios::end);
        const std::istream::pos_type end = in.tellg();
        in.seekg(here);
        if (!in || end == std::istream::pos_type(-1) || end < here) {
            reject("the input stream size cannot be determined");
        }
        remaining_ = static_cast<std::uint64_t>(end - here);
    }

    std::uint64_t remaining() const { return remaining_; }

    void bytes(void* data, std::size_t size) {
        if (size == 0) {
            return;  // an empty array's data() may be null
        }
        if (size > remaining_) {
            reject("truncated");
        }
        in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
        if (static_cast<std::size_t>(in_.gcount()) != size) {
            reject("truncated");
        }
        remaining_ -= size;
        crc_ = crc32c({static_cast<const std::byte*>(data), size}, crc_);
    }
    template <typename T>
    T get() {
        T value;
        bytes(&value, sizeof(T));
        return value;
    }
    /// A u64 element count, bounded by the bytes left (`elem_bytes` each).
    std::size_t count(std::size_t elem_bytes, const char* what) {
        const auto declared = get<std::uint64_t>();
        if (declared > remaining_ / elem_bytes) {
            reject(std::string(what) + " count " + str(declared) +
                   " exceeds the remaining checkpoint bytes");
        }
        return static_cast<std::size_t>(declared);
    }
    template <typename T>
    void get_array(std::vector<T>& out, const char* what) {
        out.resize(count(sizeof(T), what));
        bytes(out.data(), out.size() * sizeof(T));
    }
    /// Read the section's stored CRC32C and compare it with the running one.
    void check_seal(const char* section) {
        const std::uint32_t want = crc_;
        const auto stored = get<std::uint32_t>();
        if (stored != want) {
            reject(std::string("section '") + section + "' fails its CRC32C check");
        }
        crc_ = 0;
    }

private:
    std::istream& in_;
    std::uint64_t remaining_{0};
    std::uint32_t crc_{0};
};

void put_adjacency(SectionWriter& w, std::span<const Neighbor> adjacency) {
    w.put(static_cast<std::uint64_t>(adjacency.size()));
    for (const Neighbor& nb : adjacency) {
        w.put(nb.to);
        w.put(nb.weight);
    }
}

/// Bytes of one stored adjacency entry (u32 neighbour + f64 weight).
constexpr std::size_t kNeighborBytes = sizeof(VertexId) + sizeof(Weight);

/// u8 delivered + u32 from/to + u64 payload length.
constexpr std::size_t kMessageHeaderBytes = 1 + 2 * sizeof(std::uint32_t) + 8;

}  // namespace

void AnytimeEngine::save_checkpoint(std::ostream& out) const {
    AA_ASSERT_MSG(initialized_, "nothing to checkpoint before initialize()");
    const RankId num_ranks = cluster_->num_ranks();
    // In-flight traffic in mailbox order: every outbox, then every inbox.
    // Every other message kind is sent and consumed inside one engine call,
    // so only boundary-DV updates can be in flight here; refuse anything
    // else before a byte is written.
    const MailboxSystem& mail = cluster_->mailboxes();
    std::vector<std::pair<std::uint8_t, const Message*>> in_flight;
    for (const std::uint8_t delivered : {0, 1}) {
        for (RankId r = 0; r < num_ranks; ++r) {
            const auto& box = delivered != 0 ? mail.peek_inbox(r) : mail.peek_outbox(r);
            for (const Message& m : box) {
                if (m.tag != MessageTag::BoundaryDvUpdate) {
                    throw CheckpointError(
                        "cannot checkpoint while a message with tag " +
                        str(static_cast<std::uint32_t>(m.tag)) + " is in flight");
                }
                in_flight.emplace_back(delivered, &m);
            }
        }
    }

    SectionWriter w(out);
    w.put(kCheckpointMagic);
    w.put(kCheckpointVersion);
    w.put(static_cast<std::uint32_t>(num_ranks));
    w.put(config_.shards_per_rank);
    w.put(static_cast<std::uint8_t>(config_.closeness_variant));
    w.seal();

    // Adjacency lists in their own order (not an edge list): vertex
    // deletion and repartitioning traverse them, so a rebuild in another
    // order would schedule later updates differently.
    const std::size_t n = graph_.num_vertices();
    w.put(static_cast<std::uint64_t>(n));
    for (VertexId v = 0; v < n; ++v) {
        put_adjacency(w, graph_.neighbors(v));
    }
    w.seal();

    w.put_array(std::span<const ShardId>(ownership_.shard_of()));
    w.put_array(std::span<const RankId>(ownership_.shard_map()));
    w.seal();

    // Row order and adjacency order decide the relaxation schedule, so the
    // rank layouts travel verbatim (a migration leaves them in no order a
    // rebuild from the shard map could reproduce).
    for (const RankState& state : ranks_) {
        w.put(static_cast<std::uint64_t>(state.sg.num_local()));
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            w.put(state.sg.global_id(l));
            put_adjacency(w, state.sg.neighbors(l));
        }
    }
    w.seal();

    for (const RankState& state : ranks_) {
        for (LocalId l = 0; l < state.store.num_rows(); ++l) {
            const auto row = state.store.row(l);
            w.bytes(row.data(), row.size_bytes());
        }
    }
    w.seal();

    std::vector<VertexId> cols;  // reused: one row's pending columns
    for (const RankState& state : ranks_) {
        for (LocalId l = 0; l < state.store.num_rows(); ++l) {
            state.store.pending_prop(l, cols);
            w.put_array(std::span<const VertexId>(cols));
            state.store.pending_send(l, cols);
            w.put_array(std::span<const VertexId>(cols));
        }
    }
    w.seal();

    w.put(static_cast<std::uint64_t>(rc_steps_));
    w.put(wavefront_k_);
    for (const std::uint64_t word : rng_.state()) {
        w.put(word);
    }
    for (RankId r = 0; r < num_ranks; ++r) {
        w.put(cluster_->time(r));
    }
    w.seal();

    w.put(static_cast<std::uint64_t>(in_flight.size()));
    for (const auto& [delivered, m] : in_flight) {
        w.put(delivered);
        w.put(m->from);
        w.put(m->to);
        w.put_array(m->bytes());
    }
    w.seal();
    if (!out.good()) {
        throw CheckpointError("checkpoint write failed");
    }
}

AnytimeEngine AnytimeEngine::load_checkpoint(std::istream& in, EngineConfig config) {
    SectionReader reader(in);
    const RankId num_ranks = config.num_ranks;

    // ---- header: magic and version before the CRC, so a foreign file is
    // named as such; the config fingerprint after it. ----
    if (reader.get<std::uint64_t>() != kCheckpointMagic) {
        reject("bad magic, not an anytime-anywhere checkpoint");
    }
    const auto version = reader.get<std::uint32_t>();
    if (version != kCheckpointVersion) {
        reject("unsupported format version " + str(version) + " (this build reads " +
               str(kCheckpointVersion) + ")");
    }
    const auto saved_ranks = reader.get<std::uint32_t>();
    const auto shards_per_rank = reader.get<std::uint32_t>();
    const auto variant = reader.get<std::uint8_t>();
    reader.check_seal("header");
    if (saved_ranks != num_ranks) {
        reject("saved with rank count " + str(saved_ranks) +
               ", configured rank count is " + str(num_ranks));
    }
    if (shards_per_rank != config.shards_per_rank) {
        reject("saved with shards_per_rank " + str(shards_per_rank) + ", configured " +
               str(config.shards_per_rank));
    }
    if (variant != static_cast<std::uint8_t>(config.closeness_variant)) {
        reject("saved with closeness variant " + str(variant) + ", configured " +
               str(static_cast<std::uint8_t>(config.closeness_variant)));
    }

    // ---- graph. Every vertex owns a row of n doubles further on, which
    // bounds n by the stream before the graph is allocated. ----
    const auto n64 = reader.get<std::uint64_t>();
    if (n64 > std::numeric_limits<VertexId>::max() ||
        (n64 != 0 && n64 > reader.remaining() / sizeof(Weight) / n64)) {
        reject("vertex count " + str(n64) + " exceeds the checkpoint size");
    }
    const auto n = static_cast<std::size_t>(n64);
    std::vector<std::vector<Neighbor>> adjacency_lists(n);
    for (std::vector<Neighbor>& list : adjacency_lists) {
        list.resize(reader.count(kNeighborBytes, "neighbour"));
        for (Neighbor& nb : list) {
            nb.to = reader.get<VertexId>();
            nb.weight = reader.get<Weight>();
        }
    }
    reader.check_seal("graph");
    // Simple and undirected: each listed edge in range, no self-loop, a
    // finite positive weight, no neighbour twice in one list, and every
    // {u, v} listed exactly twice (so once from each side) with one weight.
    struct HalfEdge {
        VertexId lo;
        VertexId hi;
        Weight weight;
    };
    std::vector<HalfEdge> halves;
    std::vector<std::uint8_t> seen(n, 0);
    for (VertexId v = 0; v < n; ++v) {
        for (const Neighbor& nb : adjacency_lists[v]) {
            const auto edge = [&] { return "edge {" + str(v) + ", " + str(nb.to) + "}"; };
            if (nb.to >= n) {
                reject(edge() + " has an endpoint >= n = " + str(n));
            }
            if (nb.to == v) {
                reject("self-loop on vertex " + str(v));
            }
            if (!(std::isfinite(nb.weight) && nb.weight > 0)) {
                reject(edge() + " weight must be finite and positive");
            }
            if (seen[nb.to] != 0) {
                reject("duplicate " + edge());
            }
            seen[nb.to] = 1;
            halves.push_back({std::min(v, nb.to), std::max(v, nb.to), nb.weight});
        }
        for (const Neighbor& nb : adjacency_lists[v]) {
            seen[nb.to] = 0;
        }
    }
    std::sort(halves.begin(), halves.end(), [](const HalfEdge& a, const HalfEdge& b) {
        return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
    });
    for (std::size_t i = 0; i < halves.size(); i += 2) {
        const HalfEdge& a = halves[i];
        if (i + 1 == halves.size() || halves[i + 1].lo != a.lo ||
            halves[i + 1].hi != a.hi || !(halves[i + 1].weight == a.weight)) {
            reject("edge {" + str(a.lo) + ", " + str(a.hi) +
                   "} is not listed identically under both endpoints");
        }
    }
    std::vector<HalfEdge>().swap(halves);
    DynamicGraph graph = DynamicGraph::from_adjacency(std::move(adjacency_lists));

    // ---- shard tables ----
    std::vector<ShardId> shard_of;
    std::vector<RankId> shard_map;
    reader.get_array(shard_of, "shard_of");
    reader.get_array(shard_map, "shard map");
    reader.check_seal("shards");
    if (shard_of.size() != n) {
        reject("shard_of has " + str(shard_of.size()) + " entries for " + str(n) +
               " vertices");
    }
    for (const ShardId s : shard_of) {
        if (s >= shard_map.size()) {
            reject("shard_of names shard " + str(s) + " of " + str(shard_map.size()));
        }
    }
    for (const RankId r : shard_map) {
        if (r >= num_ranks) {
            reject("shard map names unknown rank " + str(r) + " (rank count " +
                   str(num_ranks) + ")");
        }
    }
    const ShardOwnership ownership(std::move(shard_of), std::move(shard_map),
                                   shards_per_rank);

    // ---- layout: each rank's rows in local order with their adjacency in
    // stored order, which must be a permutation of the vertex's graph
    // neighbours. ----
    constexpr Weight kNoEdge = std::numeric_limits<Weight>::quiet_NaN();
    std::vector<RankState> ranks(num_ranks);
    std::vector<std::uint8_t> placed(n, 0);
    std::vector<Weight> edge_to(n, kNoEdge);  // scratch: v's edge weight per neighbour
    std::vector<Neighbor> adjacency;
    std::size_t placed_count = 0;
    for (RankId r = 0; r < num_ranks; ++r) {
        LocalSubgraph& sg = ranks[r].sg;
        sg = LocalSubgraph(r, ShardOwnership{});
        sg.set_ownership(ownership);
        const std::size_t rows = reader.count(sizeof(VertexId) + 8, "rank row");
        for (std::size_t i = 0; i < rows; ++i) {
            const auto v = reader.get<VertexId>();
            if (v >= n) {
                reject("layout of rank " + str(r) + " names vertex " + str(v) + " >= n");
            }
            if (ownership.owner(v) != r || placed[v] != 0) {
                reject("layout places vertex " + str(v) + " on rank " + str(r) +
                       " against the shard map or twice");
            }
            placed[v] = 1;
            ++placed_count;
            const auto degree = reader.get<std::uint64_t>();
            if (degree != graph.degree(v)) {
                reject("layout gives vertex " + str(v) + " " + str(degree) +
                       " neighbours, the graph " + str(graph.degree(v)));
            }
            for (const Neighbor& nb : graph.neighbors(v)) {
                edge_to[nb.to] = nb.weight;
            }
            adjacency.resize(graph.degree(v));
            for (Neighbor& nb : adjacency) {
                nb.to = reader.get<VertexId>();
                nb.weight = reader.get<Weight>();
                // NaN marks "no (remaining) edge", and never compares equal.
                if (nb.to >= n || !(edge_to[nb.to] == nb.weight)) {
                    reject("layout adjacency of vertex " + str(v) +
                           " disagrees with the graph");
                }
                edge_to[nb.to] = kNoEdge;
            }
            sg.adopt_migrated(v, adjacency);
        }
    }
    reader.check_seal("layout");
    if (placed_count != n) {
        reject("layout places " + str(placed_count) + " of " + str(n) + " vertices");
    }

    // ---- rows, read straight into the vectors the stores keep. Relaxation
    // only ever lowers a value, so an entry below the true distance would
    // survive every later RC step: the checks here are what keep a bad row
    // from loading silently wrong. ----
    for (RankState& state : ranks) {
        state.store = DistanceStore(n);
        state.store.set_simd_enabled(config.rc_simd);
        for (LocalId l = 0; l < state.sg.num_local(); ++l) {
            const VertexId v = state.sg.global_id(l);
            std::vector<Weight> row(n);
            reader.bytes(row.data(), n * sizeof(Weight));
            bool bad = false;
            for (const Weight d : row) {
                bad |= !(d >= 0);  // NaN fails too; +inf is "unknown yet"
            }
            if (bad || row[v] != 0) {
                reject("row of vertex " + str(v) +
                       " has a non-zero diagonal or a negative or NaN distance");
            }
            state.store.append_row(v, std::move(row));
        }
    }
    reader.check_seal("rows");

    // ---- pending marks ----
    std::vector<VertexId> prop;
    std::vector<VertexId> send;
    for (RankState& state : ranks) {
        for (LocalId l = 0; l < state.store.num_rows(); ++l) {
            reader.get_array(prop, "prop mark");
            reader.get_array(send, "send mark");
            if (!state.store.restore_pending(l, prop, send)) {
                reject("pending marks of vertex " + str(state.sg.global_id(l)) +
                       " repeat a column or name one >= n");
            }
        }
    }
    reader.check_seal("marks");

    // ---- counters, RNG, clocks ----
    const auto rc_steps = reader.get<std::uint64_t>();
    const auto wavefront_k = reader.get<std::int64_t>();
    std::array<std::uint64_t, 4> rng_state{};
    for (std::uint64_t& word : rng_state) {
        word = reader.get<std::uint64_t>();
    }
    std::vector<double> clocks(num_ranks);
    for (double& t : clocks) {
        t = reader.get<double>();
    }
    reader.check_seal("state");
    // k counts full RC steps since a base case, so it never exceeds the
    // step counter; a larger k would certify unsettled entries as exact.
    if (wavefront_k < -1 ||
        (wavefront_k > 0 && static_cast<std::uint64_t>(wavefront_k) > rc_steps)) {
        reject("wavefront counter " + std::to_string(wavefront_k) +
               " outside [-1, rc_steps]");
    }
    if (rng_state == std::array<std::uint64_t, 4>{}) {
        reject("RNG state is all zero");
    }
    for (const double t : clocks) {
        if (!(std::isfinite(t) && t >= 0)) {
            reject("a rank clock is not a finite non-negative time");
        }
    }

    // ---- in-flight boundary messages, in mailbox order ----
    struct InFlight {
        Message message;
        bool delivered{false};
    };
    std::vector<InFlight> mail(reader.count(kMessageHeaderBytes, "message"));
    std::vector<std::byte> payload;
    for (InFlight& item : mail) {
        const auto delivered = reader.get<std::uint8_t>();
        Message& m = item.message;
        m.from = reader.get<RankId>();
        m.to = reader.get<RankId>();
        reader.get_array(payload, "payload byte");
        if (delivered > 1 || m.from >= num_ranks || m.to >= num_ranks || m.from == m.to) {
            reject("in-flight message " + str(m.from) + " -> " + str(m.to) +
                   " names an unknown rank or stage");
        }
        if (const char* error = boundary_payload_error(payload, n)) {
            reject(std::string("in-flight message payload: ") + error);
        }
        item.delivered = delivered != 0;
        m.tag = MessageTag::BoundaryDvUpdate;
        m.payload = Message::share(std::move(payload));
        payload = {};
    }
    reader.check_seal("mail");
    if (reader.remaining() != 0) {
        reject(str(reader.remaining()) + " trailing bytes");
    }

    AnytimeEngine engine(std::move(graph), config);
    engine.initialized_ = true;
    engine.ownership_ = ownership;
    engine.ranks_ = std::move(ranks);
    engine.rc_steps_ = static_cast<std::size_t>(rc_steps);
    engine.wavefront_k_ = wavefront_k;
    engine.rng_.set_state(rng_state);
    engine.cluster_->restore_clocks(clocks);
    for (InFlight& item : mail) {
        engine.cluster_->restore_message(std::move(item.message), item.delivered);
    }
    engine.report_.rc_steps = engine.rc_steps_;
    engine.report_.sim_seconds = engine.sim_seconds();
    engine.refresh_weight_extremes();
    engine.demand_->resize(n);
    return engine;
}

}  // namespace aa
