#include "harness.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "core/ia.hpp"
#include "core/telemetry.hpp"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace aa::bench {

Options parse_options(int argc, char** argv, const std::string& description) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto need_value = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << flag << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--vertices") {
            options.vertices = std::stoul(need_value("--vertices"));
        } else if (arg == "--ranks") {
            options.ranks = static_cast<std::uint32_t>(std::stoul(need_value("--ranks")));
        } else if (arg == "--threads") {
            options.threads = std::stoul(need_value("--threads"));
        } else if (arg == "--seed") {
            options.seed = std::stoull(need_value("--seed"));
        } else if (arg == "--scale") {
            options.scale = std::stod(need_value("--scale"));
        } else if (arg == "--csv") {
            options.csv = need_value("--csv");
        } else if (arg == "--json") {
            options.json = need_value("--json");
        } else if (arg == "--help" || arg == "-h") {
            std::cout << description << "\n\n"
                      << "flags:\n"
                      << "  --vertices N   host graph size (default 1200; paper: 50000)\n"
                      << "  --ranks P      simulated processors (default 16)\n"
                      << "  --threads T    IA threads per rank (default 4)\n"
                      << "  --seed S       RNG seed (default 42)\n"
                      << "  --scale F      scale vertices and batches by F\n"
                      << "  --csv PATH     also append rows to a CSV file\n"
                      << "  --json PATH    write a JSON report with per-step, "
                         "per-rank timelines\n";
            std::exit(0);
        } else {
            std::cerr << "unknown flag: " << arg << " (try --help)\n";
            std::exit(2);
        }
    }
    return options;
}

EngineConfig engine_config(const Options& options) {
    EngineConfig config;
    config.num_ranks = options.ranks;
    config.ia_threads = options.threads;
    config.seed = options.seed;
    // Scaled model: the paper runs at n = 50,000 where per-message payloads
    // are hundreds of kilobytes and the fixed LogP latency is negligible.
    // At a scaled-down n the payload (bandwidth) terms shrink like n^2 but a
    // fixed latency would not, so the cost balance would be distorted toward
    // latency. Shrinking latency/overhead proportionally with n preserves
    // the paper's compute/bandwidth/latency balance at reduced scale (see
    // EXPERIMENTS.md "Scaling methodology").
    const double shrink =
        std::min(1.0, static_cast<double>(options.scaled_vertices()) / 50000.0);
    config.logp.latency *= shrink;
    config.logp.overhead *= shrink;
    // A JSON report wants the full phase timeline; without one the registry
    // stays disabled (one dead branch per phase).
    config.enable_metrics = !options.json.empty();
    return config;
}

DynamicGraph make_host_graph(const Options& options) {
    Rng rng(options.seed);
    return barabasi_albert(options.scaled_vertices(), 3, rng);
}

DynamicGraph filtered_rmat(std::size_t n, std::size_t edges, Rng& rng) {
    std::size_t scale = 1;
    while ((std::size_t{1} << scale) < n) {
        ++scale;
    }
    // Oversample so roughly `edges` survive the filter; R-MAT's skew toward
    // low vertex ids means well over the uniform (n/2^scale)^2 fraction does.
    const std::size_t oversample = edges * 2;
    const DynamicGraph big = rmat(scale, oversample, rng);
    DynamicGraph g(n);
    std::size_t kept = 0;
    for (VertexId u = 0; u < big.num_vertices() && kept < edges; ++u) {
        for (const Neighbor& nb : big.neighbors(u)) {
            if (u < nb.to && nb.to < n && kept < edges) {
                kept += g.add_edge(u, nb.to, nb.weight) ? 1 : 0;
            }
        }
    }
    return g;
}

std::unique_ptr<RankState> build_state(const DynamicGraph& g,
                                       const std::vector<RankId>& owners,
                                       std::uint32_t num_ranks) {
    auto st = std::make_unique<RankState>(num_ranks);
    const std::size_t n = g.num_vertices();
    for (RankId r = 0; r < num_ranks; ++r) {
        st->sgs.emplace_back(r, owners);
        st->stores.emplace_back(n);
        for (const VertexId v : st->sgs[r].local_vertices()) {
            st->stores[r].add_row(v);
        }
    }
    for (VertexId u = 0; u < n; ++u) {
        for (const Neighbor& nb : g.neighbors(u)) {
            if (u >= nb.to) {
                continue;
            }
            st->sgs[owners[u]].add_local_edge(u, nb.to, nb.weight);
            if (owners[nb.to] != owners[u]) {
                st->sgs[owners[nb.to]].add_local_edge(u, nb.to, nb.weight);
            }
        }
    }
    ThreadPool ia_pool(1);
    for (RankId r = 0; r < num_ranks; ++r) {
        ia_dijkstra_all(st->sgs[r], st->stores[r], ia_pool);
    }
    return st;
}

GrowthBatch make_batch(std::size_t host_vertices, std::size_t count,
                       std::uint64_t seed) {
    GrowthConfig config;
    config.num_new = count;
    // Batch community count grows slowly with the batch, matching the
    // multi-community batches the paper extracts via Louvain.
    config.communities = std::clamp<std::size_t>(count / 24, 2, 8);
    config.intra_edges = 3;
    config.host_edges = 2;
    config.noise = 0.05;
    Rng rng(seed);
    return grow_batch(host_vertices, config, rng);
}

namespace {
std::vector<std::size_t> scaled_fractions(const Options& options,
                                          std::initializer_list<double> fractions) {
    std::vector<std::size_t> sizes;
    for (const double f : fractions) {
        sizes.push_back(std::max<std::size_t>(
            4, static_cast<std::size_t>(f * static_cast<double>(options.scaled_vertices()))));
    }
    return sizes;
}
}  // namespace

std::vector<std::size_t> figure5_batch_sizes(const Options& options) {
    // Paper: 500, 1000, 2000, 3000, 4000, 6000 of 50,000 (1%..12%), plus one
    // extra 16% point: at reduced scale the Figure 6 crossover sits slightly
    // beyond the paper's axis (see EXPERIMENTS.md).
    return scaled_fractions(options, {0.01, 0.02, 0.04, 0.06, 0.08, 0.12, 0.16});
}

std::vector<std::size_t> figure8_step_sizes(const Options& options) {
    // Paper: 51, 187, 383, 561 per step of 50,000 (x10 steps). The paper's
    // smallest fractions collapse to the same integer at reduced host sizes,
    // so they are doubled here (the sweep's 1:3.7:7.5:11 spread is what the
    // figure exercises, not the absolute counts).
    auto sizes = scaled_fractions(options, {0.00204, 0.00748, 0.01532, 0.02244});
    for (std::size_t i = 1; i < sizes.size(); ++i) {
        sizes[i] = std::max(sizes[i], sizes[i - 1] + 1);  // keep strictly rising
    }
    return sizes;
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
    rows_.push_back(std::move(row));
}

void Table::print() const {
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c) {
        widths[c] = header_[c].size();
    }
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    const auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
        }
        std::printf("\n");
    };
    print_row(header_);
    std::size_t total = header_.size() - 1 + 2 * header_.size();
    for (const std::size_t w : widths) {
        total += w;
    }
    for (std::size_t i = 0; i + 2 < total; ++i) {
        std::printf("-");
    }
    std::printf("\n");
    for (const auto& row : rows_) {
        print_row(row);
    }
    std::fflush(stdout);
}

void Table::write_csv(const std::string& path) const {
    if (path.empty()) {
        return;
    }
    const bool fresh = [&] {
        std::ifstream probe(path);
        return !probe.good() || probe.peek() == std::ifstream::traits_type::eof();
    }();
    std::ofstream out(path, std::ios::app);
    const auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c > 0) {
                out << ',';
            }
            out << row[c];
        }
        out << '\n';
    };
    if (fresh) {
        emit(header_);
    }
    for (const auto& row : rows_) {
        emit(row);
    }
}

JsonReport::JsonReport(std::string bench, std::string path)
    : bench_(std::move(bench)), path_(std::move(path)) {}

void JsonReport::add_raw(const std::string& key, std::string json_value) {
    if (!wanted()) {
        return;
    }
    entries_.emplace_back(key, std::move(json_value));
}

void JsonReport::add_timeline(const std::string& label,
                              const AnytimeEngine& engine) {
    if (!wanted()) {
        return;
    }
    timelines_.emplace_back(label, telemetry_json(engine, 6));
}

void JsonReport::set_table(const Table& table) {
    if (!wanted()) {
        return;
    }
    std::string out = "{\n    \"header\": [";
    const auto& header = table.header();
    for (std::size_t c = 0; c < header.size(); ++c) {
        if (c > 0) {
            out += ", ";
        }
        out += "\"" + json_escape(header[c]) + "\"";
    }
    out += "],\n    \"rows\": [";
    const auto& rows = table.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        out += (r == 0 ? "\n" : ",\n");
        out += "      [";
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
            if (c > 0) {
                out += ", ";
            }
            out += "\"" + json_escape(rows[r][c]) + "\"";
        }
        out += "]";
    }
    if (!rows.empty()) {
        out += "\n    ";
    }
    out += "]\n  }";
    table_json_ = std::move(out);
}

bool JsonReport::write() const {
    if (!wanted()) {
        return true;
    }
    std::string out = "{\n  \"bench\": \"" + json_escape(bench_) + "\"";
    for (const auto& [key, value] : entries_) {
        out += ",\n  \"" + json_escape(key) + "\": " + value;
    }
    if (!table_json_.empty()) {
        out += ",\n  \"table\": " + table_json_;
    }
    out += ",\n  \"timelines\": [";
    for (std::size_t i = 0; i < timelines_.size(); ++i) {
        out += (i == 0 ? "\n" : ",\n");
        out += "    {\"label\": \"" + json_escape(timelines_[i].first) +
               "\",\n     \"timeline\": " + timelines_[i].second + "}";
    }
    if (!timelines_.empty()) {
        out += "\n  ";
    }
    out += "]\n}\n";
    return write_report(path_, out);
}

JsonReport make_report(const std::string& bench, const Options& options) {
    JsonReport report(bench, options.json);
    report.add_raw("options",
                   "{\"vertices\": " + std::to_string(options.scaled_vertices()) +
                       ", \"ranks\": " + std::to_string(options.ranks) +
                       ", \"threads\": " + std::to_string(options.threads) +
                       ", \"seed\": " + std::to_string(options.seed) + "}");
    return report;
}

unsigned host_hardware_concurrency() {
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string host_json() {
    return "\"host_hardware_concurrency\": " + std::to_string(host_hardware_concurrency()) +
           ", \"build_type\": \"" AA_BUILD_TYPE "\"";
}

bool write_report(const std::string& path, const std::string& json) {
    if (path.empty()) {
        return true;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return false;
    }
    const bool written = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !written) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

std::string fmt_seconds(double seconds) {
    std::ostringstream out;
    out.precision(4);
    out << seconds;
    return out.str();
}

std::string fmt_double(double value, int precision) {
    std::ostringstream out;
    out.precision(precision);
    out << std::fixed << value;
    return out.str();
}

}  // namespace aa::bench
