// graphgen — dataset generator CLI.
//
// Emits graphs in SNAP edge-list or Pajek format from any of the library's
// generators, for feeding the benchmarks, the examples, or external tools.
//
//   graphgen ba      --n 50000 --m 3                 > graph.txt
//   graphgen rmat    --scale 16 --edges 500000       > rmat.txt
//   graphgen sbm     --n 10000 --communities 16 --pin 0.02 --pout 0.0005
//   graphgen ws      --n 5000 --k 4 --beta 0.1
//   graphgen er      --n 2000 --edges 10000
// Common flags: --seed S, --wmin W --wmax W (random weights), --pajek,
//               --out PATH (default stdout).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "cli_parse.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/metrics.hpp"

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
    if (error != nullptr) {
        std::fprintf(stderr, "error: %s\n\n", error);
    }
    std::fprintf(stderr,
                 "usage: graphgen <ba|er|ws|sbm|rmat> [flags]\n"
                 "  ba:   --n N --m EDGES_PER_VERTEX\n"
                 "  er:   --n N --edges M\n"
                 "  ws:   --n N --k K --beta B\n"
                 "  sbm:  --n N --communities C --pin P --pout P\n"
                 "  rmat: --scale S --edges M [--a --b --c --d]\n"
                 "  common: --seed S --wmin W --wmax W --pajek --out PATH\n");
    std::exit(2);
}

struct Args {
    std::string kind;
    std::size_t n{1000};
    std::size_t m{3};
    std::size_t edges{5000};
    std::size_t k{3};
    std::size_t scale{12};
    std::size_t communities{8};
    double beta{0.1};
    double pin{0.02};
    double pout{0.001};
    aa::RmatParams rmat_params{};
    std::uint64_t seed{1};
    double wmin{1.0};
    double wmax{1.0};
    bool pajek{false};
    std::string out;
};

Args parse(int argc, char** argv) {
    if (argc < 2) {
        usage();
    }
    Args args;
    args.kind = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(("missing value for " + flag).c_str());
            }
            return argv[++i];
        };
        // A bad numeric value is an `error:` line and exit 2, never a crash.
        const auto reject = [&](const std::string& text, const char* expected) {
            usage((flag + " needs " + expected + ", got '" + text + "'").c_str());
        };
        const auto integer = [&](std::uint64_t lo, std::uint64_t hi, const char* expected) {
            const std::string text = value();
            std::uint64_t out = 0;
            if (!aa::cli::parse_integer(text, lo, hi, out)) {
                reject(text, expected);
            }
            return static_cast<std::size_t>(out);
        };
        const auto number = [&](double lo, double hi, const char* expected) {
            const std::string text = value();
            double out = 0;
            if (!aa::cli::parse_number(text, lo, hi, out)) {
                reject(text, expected);
            }
            return out;
        };
        constexpr auto kAny = std::numeric_limits<std::uint32_t>::max();
        constexpr auto kMaxWeight = std::numeric_limits<double>::max();
        if (flag == "--n") args.n = integer(1, kAny, "a vertex count >= 1");
        else if (flag == "--m") args.m = integer(1, kAny, "an integer >= 1");
        else if (flag == "--edges") args.edges = integer(0, kAny, "an edge count");
        else if (flag == "--k") args.k = integer(1, kAny, "an integer >= 1");
        else if (flag == "--scale") args.scale = integer(1, 30, "a scale in [1, 30]");
        else if (flag == "--communities") {
            args.communities = integer(1, kAny, "a community count >= 1");
        }
        else if (flag == "--beta") args.beta = number(0, 1, "a probability");
        else if (flag == "--pin") args.pin = number(0, 1, "a probability");
        else if (flag == "--pout") args.pout = number(0, 1, "a probability");
        else if (flag == "--a") args.rmat_params.a = number(0, 1, "a probability");
        else if (flag == "--b") args.rmat_params.b = number(0, 1, "a probability");
        else if (flag == "--c") args.rmat_params.c = number(0, 1, "a probability");
        else if (flag == "--d") args.rmat_params.d = number(0, 1, "a probability");
        else if (flag == "--seed") {
            args.seed = integer(0, std::numeric_limits<std::uint64_t>::max(),
                                "an unsigned integer");
        }
        else if (flag == "--wmin") args.wmin = number(0, kMaxWeight, "a finite weight >= 0");
        else if (flag == "--wmax") args.wmax = number(0, kMaxWeight, "a finite weight >= 0");
        else if (flag == "--pajek") args.pajek = true;
        else if (flag == "--out") args.out = value();
        else usage(("unknown flag " + flag).c_str());
    }
    if (args.wmin > args.wmax) {
        usage("--wmin must not exceed --wmax");
    }
    // The generators assert their size preconditions; check them here so a
    // bad combination is an error line too.
    const std::size_t n = args.kind == "rmat" ? std::size_t{1} << args.scale : args.n;
    const std::size_t max_edges = n * (n - 1) / 2;
    const double rmat_total = args.rmat_params.a + args.rmat_params.b +
                              args.rmat_params.c + args.rmat_params.d;
    if (args.kind == "ba" && args.n < std::max<std::size_t>(args.m + 1, 2)) {
        usage("ba needs --n > --m");
    } else if ((args.kind == "er" || args.kind == "rmat") && args.edges > max_edges) {
        usage("--edges exceeds the simple-graph maximum");
    } else if (args.kind == "er" && args.n < 2) {
        usage("er needs --n >= 2");
    } else if (args.kind == "ws" && 2 * args.k >= args.n) {
        usage("ws needs 2 * --k < --n");
    } else if (args.kind == "sbm" && args.communities > args.n) {
        usage("sbm needs --communities <= --n");
    } else if (args.kind == "rmat" && !(std::abs(rmat_total - 1.0) < 1e-9)) {
        usage("rmat needs --a --b --c --d summing to 1");
    }
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace aa;
    const Args args = parse(argc, argv);

    Rng rng(args.seed);
    const WeightRange weights{args.wmin, args.wmax};
    DynamicGraph g;
    if (args.kind == "ba") {
        g = barabasi_albert(args.n, args.m, rng, weights);
    } else if (args.kind == "er") {
        g = erdos_renyi_gnm(args.n, args.edges, rng, weights);
    } else if (args.kind == "ws") {
        g = watts_strogatz(args.n, args.k, args.beta, rng, weights);
    } else if (args.kind == "sbm") {
        g = planted_partition(args.n, args.communities, args.pin, args.pout, rng,
                              nullptr, weights);
    } else if (args.kind == "rmat") {
        g = rmat(args.scale, args.edges, rng, args.rmat_params, weights);
    } else {
        usage(("unknown generator " + args.kind).c_str());
    }

    std::fprintf(stderr, "generated %s: %zu vertices, %zu edges, avg degree %.2f\n",
                 args.kind.c_str(), g.num_vertices(), g.num_edges(),
                 average_degree(g));
    if (args.out.empty()) {
        if (args.pajek) {
            write_pajek(g, std::cout);
        } else {
            write_snap_edge_list(g, std::cout);
        }
    } else {
        if (args.pajek) {
            write_pajek_file(g, args.out);
        } else {
            write_snap_edge_list_file(g, args.out);
        }
        std::fprintf(stderr, "written to %s\n", args.out.c_str());
    }
    return 0;
}
