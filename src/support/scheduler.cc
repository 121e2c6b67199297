#include "support/scheduler.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/trace.h"

namespace firmup {

namespace {

const trace::Counter c_ws_runs("worksteal.runs");
const trace::Counter c_ws_chunks("worksteal.chunks_dealt");
const trace::Counter c_ws_steals("worksteal.steals");

}  // namespace

std::size_t
WorkStealingScheduler::chunk_for(std::size_t count, unsigned threads)
{
    const std::size_t n = std::max(1u, threads);
    return std::clamp<std::size_t>(count / (n * 8), 1, 64);
}

void
WorkStealingScheduler::run(unsigned threads, std::size_t count,
                           const std::function<void(std::size_t)> &fn)
{
    if (count == 0) {
        return;
    }
    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(
            std::max(1u, threads), count));
    if (n == 1) {
        // Exact serial semantics, no thread machinery: this is the path
        // the 1-worker determinism runs compare everything against.
        for (std::size_t i = 0; i < count; ++i) {
            fn(i);
        }
        return;
    }
    c_ws_runs.add();

    struct Range
    {
        std::size_t begin = 0;
        std::size_t end = 0;
    };
    struct WorkerDeque
    {
        std::mutex mutex;
        std::deque<Range> ranges;
    };
    // Constructed in place and never reallocated (mutex is immovable).
    std::vector<WorkerDeque> deques(n);

    // Deal contiguous chunks round-robin. Contiguity is load-bearing for
    // callers that order items target-major; round-robin spreads the
    // initial ranges so stealing is the exception, not the steady state.
    const std::size_t chunk = chunk_for(count, n);
    std::size_t begin = 0;
    unsigned next_worker = 0;
    std::size_t dealt = 0;
    while (begin < count) {
        const std::size_t end = std::min(begin + chunk, count);
        deques[next_worker].ranges.push_back({begin, end});
        begin = end;
        next_worker = (next_worker + 1) % n;
        ++dealt;
    }
    c_ws_chunks.add(dealt);

    std::atomic<bool> cancelled{false};
    std::mutex error_mutex;
    std::exception_ptr first_error;

    auto worker = [&](unsigned self) {
        try {
            while (!cancelled.load(std::memory_order_relaxed)) {
                Range range;
                bool got = false;
                {
                    std::lock_guard<std::mutex> lock(deques[self].mutex);
                    if (!deques[self].ranges.empty()) {
                        range = deques[self].ranges.back();
                        deques[self].ranges.pop_back();
                        got = true;
                    }
                }
                for (unsigned step = 1; !got && step < n; ++step) {
                    WorkerDeque &victim = deques[(self + step) % n];
                    std::lock_guard<std::mutex> lock(victim.mutex);
                    if (!victim.ranges.empty()) {
                        range = victim.ranges.front();
                        victim.ranges.pop_front();
                        got = true;
                        c_ws_steals.add();
                    }
                }
                if (!got) {
                    return;  // every deque drained; in-flight chunks
                             // spawn no new work, so this is final
                }
                for (std::size_t i = range.begin; i < range.end; ++i) {
                    if (cancelled.load(std::memory_order_relaxed)) {
                        return;
                    }
                    fn(i);
                }
            }
        } catch (...) {
            cancelled.store(true);
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(n - 1);
    for (unsigned i = 1; i < n; ++i) {
        workers.emplace_back(worker, i);
    }
    worker(0);  // the calling thread is worker 0
    for (std::thread &t : workers) {
        t.join();
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

}  // namespace firmup
