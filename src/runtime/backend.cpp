#include "runtime/backend.hpp"

#include <algorithm>
#include <thread>

#include "common/assert.hpp"

namespace aa {

std::string_view backend_kind_name(BackendKind kind) {
    switch (kind) {
        case BackendKind::Sequential: return "seq";
        case BackendKind::Threaded: return "threaded";
    }
    return "?";
}

bool parse_backend_kind(std::string_view name, BackendKind& kind) {
    if (name == "seq") {
        kind = BackendKind::Sequential;
    } else if (name == "threaded") {
        kind = BackendKind::Threaded;
    } else {
        return false;
    }
    return true;
}

void SequentialBackend::run_ranks(std::size_t num_ranks,
                                  const std::function<void(RankId)>& fn) {
    for (std::size_t r = 0; r < num_ranks; ++r) {
        fn(static_cast<RankId>(r));
    }
}

ThreadedBackend::ThreadedBackend(std::size_t executors) : pool_(executors) {}

void ThreadedBackend::run_ranks(std::size_t num_ranks,
                                const std::function<void(RankId)>& fn) {
    // parallel_for statically chunks [0, P) over the workers plus the calling
    // thread and blocks until every iteration completed — exactly the barrier
    // run_ranks promises. Each index runs exactly once.
    pool_.parallel_for(0, num_ranks,
                       [&fn](std::size_t r) { fn(static_cast<RankId>(r)); });
}

std::size_t default_backend_executors(std::size_t num_ranks) {
    const std::size_t cores = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(cores, 1, std::max<std::size_t>(num_ranks, 1));
}

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind,
                                               std::size_t num_ranks,
                                               std::size_t executors) {
    AA_ASSERT_MSG(num_ranks >= 1, "backend needs at least one rank");
    switch (kind) {
        case BackendKind::Sequential:
            return std::make_unique<SequentialBackend>();
        case BackendKind::Threaded:
            return std::make_unique<ThreadedBackend>(
                executors != 0 ? executors : default_backend_executors(num_ranks));
    }
    AA_ASSERT_MSG(false, "unknown backend kind");
    return nullptr;
}

}  // namespace aa
