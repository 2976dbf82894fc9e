// Engine-level telemetry exporters: render one AnytimeEngine's run as the
// standard per-step, per-rank timeline block that the figure/ablation benches
// embed in their JSON output and that `scenario_runner metrics` /
// `temporal_replay --timeline` dump standalone.
//
// Schema (`aa.timeline.v1`, documented in EXPERIMENTS.md):
//   {
//     "schema": "aa.timeline.v1",
//     "sim_seconds": <simulated clock at export>,
//     "rc_steps": <completed RC steps>,
//     "num_ranks": P,
//     "per_rank": [ {rank, ops, compute_seconds, messages_sent, bytes_sent,
//                    messages_received, bytes_received}, ... ],
//     "steps":    [ {step, exchange_seconds, messages, bytes, ops,
//                    sim_seconds_after}, ... ],           // RcStepStats
//     "metrics":  { enabled, spans, counters, histograms } // MetricsRegistry
//   }
//
// The `metrics.spans` stream carries the phase timeline proper: "dd",
// per-rank "ia", per-step/per-rank "rc.post" / "rc.exchange" (or
// "rc.exchange.inflight" for event-driven steps) with its per-rank
// "rc.exchange.rank" children / "rc.ingest" (or "rc.ingest.early" for an
// event-driven arrival) / "rc.propagate", "add" events (with strategy,
// moved-vertex count and new-cut-edge attributes) with their nested
// "add.extend" / "add.broadcast" / "add.propagate" sub-phases (Repartition-S
// opens "repartition.partition" / "repartition.migrate" before them), and
// "delete" and "migrate" events. All times are simulated seconds. The CSV exporter emits just
// the span stream (common/metrics.hpp's lossless span CSV).
#pragma once

#include <string>

namespace aa {

class AnytimeEngine;

/// Full timeline block. `indent` = leading indentation (spaces) of every
/// line, so benches can nest the block inside a larger JSON object.
std::string telemetry_json(const AnytimeEngine& engine, int indent = 0);

/// The span stream as CSV (see spans_to_csv).
std::string telemetry_csv(const AnytimeEngine& engine);

}  // namespace aa
