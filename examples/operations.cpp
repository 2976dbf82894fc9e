// Scenario: operating a long-running analysis service.
//
// Demonstrates the operational side of the anytime-anywhere design:
//   * per-RC-step telemetry (bytes / messages / ops / exchange time),
//   * taking a checkpoint of an in-flight analysis,
//   * "crashing" (dropping the engine) and resuming from the checkpoint on a
//     fresh engine — exactly where the saved run stopped: same clock, same
//     pending work, no recovery sweep — then absorbing more dynamic updates,
//   * a damaged checkpoint being refused with a typed CheckpointError,
//   * the distributed closeness reduction a deployment would actually run.
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "core/closeness.hpp"
#include "core/engine.hpp"
#include "core/strategies.hpp"
#include "graph/generators.hpp"

int main() {
    using namespace aa;

    Rng rng(99);
    DynamicGraph network = barabasi_albert(600, 3, rng);

    EngineConfig config;
    config.num_ranks = 8;
    config.ia_threads = 4;

    std::stringstream checkpoint;
    {
        AnytimeEngine engine(network, config);
        engine.initialize();
        std::printf("analysis started: %zu vertices on %zu ranks\n",
                    engine.num_vertices(), engine.num_ranks());

        // Run two steps, then snapshot mid-flight.
        engine.run_rc_steps(2);
        std::printf("\nper-step telemetry so far:\n");
        std::printf("  %-5s %-10s %-9s %-12s %-10s\n", "step", "exch_s", "msgs",
                    "bytes", "ops");
        for (const RcStepStats& s : engine.step_history()) {
            std::printf("  %-5zu %-10.4f %-9zu %-12zu %-10.3g\n", s.step,
                        s.exchange_seconds, s.messages, s.bytes, s.ops);
        }

        engine.save_checkpoint(checkpoint);
        std::printf("\ncheckpoint taken at RC%zu (%.4f sim s, %zu bytes)\n",
                    engine.rc_steps_completed(), engine.sim_seconds(),
                    static_cast<std::size_t>(checkpoint.str().size()));
        // Engine destroyed here — simulated crash.
    }

    // Storage is not trusted: every section carries a CRC32C, so a flipped
    // byte is refused with a typed error instead of loading silently wrong.
    std::string damaged = checkpoint.str();
    damaged[damaged.size() / 2] ^= 0x5A;
    std::stringstream damaged_stream(damaged);
    try {
        (void)AnytimeEngine::load_checkpoint(damaged_stream, config);
        std::printf("damaged checkpoint loaded (unexpected)\n");
    } catch (const CheckpointError& e) {
        std::printf("damaged copy refused: %s\n", e.what());
    }

    std::printf("--- process restarted; resuming from checkpoint ---\n");
    auto engine = AnytimeEngine::load_checkpoint(checkpoint, config);
    // The restore is exact: the clock, the step count and the pending RC
    // work are the saved engine's, so the next step continues its schedule.
    std::printf("resumed at RC%zu, sim clock %.4fs, %s\n", engine.rc_steps_completed(),
                engine.sim_seconds(),
                engine.quiescent() ? "quiescent" : "pending RC work carried over");

    // New actors arrive after the resume; incorporate and converge.
    GrowthConfig growth;
    growth.num_new = 40;
    growth.communities = 2;
    Rng batch_rng(7);
    const GrowthBatch batch = grow_batch(engine.num_vertices(), growth, batch_rng);
    CutEdgePS strategy(13);
    engine.apply_addition(batch, strategy);
    engine.run_to_quiescence();
    std::printf("absorbed %zu new actors, converged at RC%zu (%.4f sim s)\n",
                batch.num_new, engine.rc_steps_completed(), engine.sim_seconds());

    // Production-style result extraction: the distributed reduction.
    const auto scores = engine.compute_closeness_distributed();
    const auto ranking = closeness_ranking(scores);
    std::printf("\ntop-5 after recovery & growth:\n");
    for (int i = 0; i < 5; ++i) {
        std::printf("  #%d vertex %-6u closeness %.6g\n", i + 1, ranking[i],
                    scores.closeness[ranking[i]]);
    }

    // Validate the recovery was lossless.
    DynamicGraph grown = network;
    grown.add_vertices(batch.num_new);
    for (const Edge& e : batch.edges) {
        grown.add_edge(e.u, e.v, e.weight);
    }
    const auto exact = exact_closeness(grown);
    double worst = 0;
    for (std::size_t v = 0; v < exact.closeness.size(); ++v) {
        worst = std::max(worst, std::abs(scores.closeness[v] - exact.closeness[v]));
    }
    std::printf("\nmax |closeness - exact| after crash recovery: %.2e  (%s)\n",
                worst, worst < 1e-9 ? "LOSSLESS" : "DATA LOSS");
    return worst < 1e-9 ? 0 : 1;
}
