// Shared support for the figure-reproduction benchmark binaries: CLI flags,
// experiment configuration scaled from the paper's setup, workload
// construction, and aligned table output.
//
// The paper's experiments use a 50,000-vertex scale-free graph on 16
// processors. Full APSP state at that size is ~20 GB, so the default here is
// a proportionally scaled-down instance (every batch size is the same
// *fraction* of the host graph as in the paper); pass --vertices to change
// it. See EXPERIMENTS.md for the scaling argument and recorded outputs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"

namespace aa::bench {

struct Options {
    /// Host graph size (paper: 50,000).
    std::size_t vertices{1200};
    /// Simulated processors (paper: 16).
    std::uint32_t ranks{16};
    /// IA threads per rank (paper: multithreaded Dijkstra via OpenMP).
    std::size_t threads{4};
    std::uint64_t seed{42};
    /// Multiplier on vertices (and hence batch sizes): --scale 0.5 for quick
    /// runs, 2.0 for larger ones.
    double scale{1.0};
    /// Optional CSV output path ("" = none).
    std::string csv;
    /// Optional JSON report path ("" = none). When set, engine_config()
    /// enables the engine's MetricsRegistry so the report carries the full
    /// per-step, per-rank timeline (aa.timeline.v1; see core/telemetry.hpp).
    std::string json;

    std::size_t scaled_vertices() const {
        return static_cast<std::size_t>(static_cast<double>(vertices) * scale);
    }
};

/// Parse --vertices/--ranks/--threads/--seed/--scale/--csv/--json. Unknown
/// flags abort with a usage message. Returns the options.
Options parse_options(int argc, char** argv, const std::string& description);

/// Engine configuration matching the paper's setup at the chosen scale.
EngineConfig engine_config(const Options& options);

/// The benchmark host graph: an undirected scale-free (Barabasi-Albert)
/// graph, as the paper generates with Pajek.
DynamicGraph make_host_graph(const Options& options);

/// A community-structured batch (the paper extracts batches with Louvain so
/// they carry community structure; see DESIGN.md).
GrowthBatch make_batch(std::size_t host_vertices, std::size_t count,
                       std::uint64_t seed);

/// The paper's batch-size sweep (500..6000 on a 50k host) as fractions of the
/// configured host size.
std::vector<std::size_t> figure5_batch_sizes(const Options& options);

/// The paper's Figure 8 per-step addition counts (51/187/383/561 per RC step
/// on a 50k host) as fractions of the configured host size.
std::vector<std::size_t> figure8_step_sizes(const Options& options);

// ---- kernel-level fixtures (RC kernel, wire-format, overlap ablations) ----

/// Exactly `n` vertices of R-MAT structure: generate a larger power-of-two
/// instance and keep the edges with both endpoints below n (the generator
/// itself only makes 2^scale vertices). The kernel ablations share it so they
/// describe one instance.
DynamicGraph filtered_rmat(std::size_t n, std::size_t edges, Rng& rng);

/// Per-rank sub-graphs and distance stores under a flat vertex -> rank map,
/// driven through the RC kernels directly (no engine).
struct RankState {
    Cluster cluster;
    std::vector<LocalSubgraph> sgs;
    std::vector<DistanceStore> stores;
    explicit RankState(std::uint32_t num_ranks) : cluster(num_ranks) {}
};

/// Build every rank's state for `owners` and run IA on it.
std::unique_ptr<RankState> build_state(const DynamicGraph& g,
                                       const std::vector<RankId>& owners,
                                       std::uint32_t num_ranks);

// ---- output --------------------------------------------------------------

class Table {
public:
    explicit Table(std::vector<std::string> header);

    void add_row(std::vector<std::string> row);
    /// Print aligned columns to stdout.
    void print() const;
    /// Append as CSV to `path` (writes header if the file is new/empty).
    void write_csv(const std::string& path) const;

    const std::vector<std::string>& header() const { return header_; }
    const std::vector<std::vector<std::string>>& rows() const { return rows_; }

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

std::string fmt_seconds(double seconds);
std::string fmt_double(double value, int precision = 3);

/// std::thread::hardware_concurrency(), or 1 where the host does not report
/// it (the standard library returns 0 then).
unsigned host_hardware_concurrency();

/// The host and build every BENCH_*.json records, as JSON object members
/// without braces: `"host_hardware_concurrency": N, "build_type": "..."`,
/// the build type being the CMake build type this binary was compiled under.
std::string host_json();

/// Write a rendered report to `path`, checking the open, the write and the
/// close. Prints "wrote PATH" on success; on failure prints a diagnostic and
/// returns false, and the bench exits 1. An empty path writes nothing.
bool write_report(const std::string& path, const std::string& json);

/// JSON report writer shared by every figure/ablation binary: the printed
/// table plus one aa.timeline.v1 block per recorded engine run, so each
/// bench's JSON shows where simulated time and traffic went per rank and per
/// phase. Inert (records nothing, writes nothing) when the path is empty —
/// i.e. when --json was not passed.
class JsonReport {
public:
    JsonReport(std::string bench, std::string path);

    bool wanted() const { return !path_.empty(); }

    /// Add a top-level key with a pre-rendered JSON value (number, string
    /// literal including quotes, or object).
    void add_raw(const std::string& key, std::string json_value);
    /// Capture the engine's timeline under `label` (call while the engine
    /// still holds the run's metrics, e.g. right after run_to_quiescence).
    void add_timeline(const std::string& label, const AnytimeEngine& engine);
    /// Capture the result table (header + rows, as printed).
    void set_table(const Table& table);

    /// Write the report to the path. Returns false on I/O failure (also
    /// printing a diagnostic); true when written or when inert.
    bool write() const;

private:
    std::string bench_;
    std::string path_;
    std::vector<std::pair<std::string, std::string>> entries_;  // key -> raw
    std::vector<std::pair<std::string, std::string>> timelines_;
    std::string table_json_;
};

/// The standard report for a harness-based bench: path from --json, options
/// echoed into the report.
JsonReport make_report(const std::string& bench, const Options& options);

}  // namespace aa::bench
