// The executor axis of the suites that run one engine on one rank executor
// and on the default thread-per-core executors; results must be
// bit-identical between them (see the determinism contract in
// core/engine.hpp). An enum rather than the EngineConfig::backend_threads
// count, so parameterized instances keep their printed parameters.
#pragma once

#include <cstddef>

namespace aa {

enum class Executors { Sequential, Threaded };

/// EngineConfig::backend_threads for `executors`: 1 runs the ranks in
/// ascending order on the driver thread (the reference order), 0 is the
/// thread-per-core default.
constexpr std::size_t executor_count(Executors executors) {
    return executors == Executors::Sequential ? 1 : 0;
}

}  // namespace aa
