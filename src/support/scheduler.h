/**
 * @file
 * The one scheduler for data-parallel corpus work.
 *
 * The paper's evaluation machine runs 72 threads with bounded per-thread
 * memory (section 5.1). Corpus indexing (one executable per item), the
 * per-procedure fan-out inside one executable and the batched hunt's
 * (query, target) games are all index ranges of independent items, so
 * they share this scheduler.
 */
#pragma once

#include <cstddef>
#include <functional>

namespace firmup {

/**
 * Work-stealing range scheduler for heterogeneous per-item work.
 *
 * A batched multi-CVE hunt fans out (query, target) *game* items that
 * are individually tiny once the index caches are warm, and a per-item
 * shared counter (let alone per-item task submission) drowns them in
 * scheduling overhead. Here the index range is pre-split into contiguous
 * chunks dealt round-robin across per-worker deques: each worker pops
 * its own deque LIFO (newest chunk, warmest data) and, when empty,
 * steals the *oldest* chunk from a victim FIFO — the classic
 * owner-LIFO/thief-FIFO discipline that keeps stolen work as far as
 * possible from what the owner is about to touch. Contiguous chunks are
 * what lets the driver order items target-major: every query's game
 * against one target runs back-to-back on one worker while that
 * target's index is hot. Coarse items (a whole executable to lift)
 * get chunks of one or a few, and stealing balances their skew.
 *
 * A throwing item does not terminate the process: the first exception
 * cancels the sweep (remaining items are abandoned, in-chunk items
 * included) and is rethrown on the calling thread. fn must be safe to
 * call concurrently for distinct indices. Which worker runs which index
 * is non-deterministic; callers get determinism by writing disjoint
 * per-index slots and merging single-threaded.
 */
class WorkStealingScheduler
{
  public:
    /**
     * Chunk size for @p count items on @p threads workers:
     * count / (threads * 8), clamped to [1, 64] — about eight chunks
     * per worker so stealing can rebalance a skewed tail, capped so one
     * stolen chunk never holds a core's whole share hostage.
     */
    static std::size_t chunk_for(std::size_t count, unsigned threads);

    /**
     * Run @p fn(i) for i in [0, count) across @p threads workers
     * (minimum 1; the calling thread participates) and wait. If any
     * invocation throws, the first exception is rethrown here.
     */
    static void run(unsigned threads, std::size_t count,
                    const std::function<void(std::size_t)> &fn);
};

}  // namespace firmup
