/**
 * @file
 * The three closed-loop workloads. Each has one client issuing one op
 * after another through the public eval::Driver API; an op is a blob
 * (ingest_cold) or one CVE hunt (hunt_warm, hunt_hot). Constructing a
 * workload is its set-up; README.md says why each one exists.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fixture.h"
#include "replay.h"
#include "support/trace.h"

namespace perfbench {

/** Work the traced replay counted itself, summed over its ops. */
struct ReplayCounts
{
    double unpack_bytes = 0;
    double keyed_targets = 0;  ///< eval::content_key calls
    double lifts = 0;          ///< lifter::lift_executable calls
    double blocks = 0;         ///< basic blocks those lifts produced
    double write_bytes = 0;    ///< IndexCacheStore::store bytes
    double loads = 0;          ///< IndexCacheStore::load calls
    double load_hits = 0;
    double query_probes = 0;   ///< query-build probes run
    double recipe_hits = 0;    ///< query indexes served by recipe
    double probes = 0;         ///< the games' exact retrieval probes
    double candidates = 0;     ///< procedures those probes scored
    double index_bytes = 0;    ///< ExecutableIndex::memory_bytes held
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Ops in one round: blobs for ingest_cold, CVEs for the hunts. */
    virtual std::size_t round_size() const = 0;

    /**
     * What one round costs on the reference host (4-core x86-64,
     * RelWithDebInfo, one op thread). It converts --seconds into a fixed
     * number of rounds, so both sides of a comparison run the same ops.
     */
    virtual double round_seconds() const = 0;

    /** Rounds each set-up's share of the timed loop runs at least. */
    virtual long min_rounds() const { return 1; }

    /** Called before each round's ops (ingest_cold empties its store). */
    virtual void begin_round() {}

    /** Shape check after a round; empty when the shape held. */
    virtual std::string end_round() { return {}; }

    /**
     * One untraced op on @p item (blob or CVE index) at @p threads
     * driver threads. Verdicts go to the run's VerdictBook. Returns
     * why the op failed, or empty.
     */
    virtual std::string op(std::size_t item, unsigned threads) = 0;

    /** Untimed preparation of the traced replay (queries, lookups). */
    virtual void prepare_replay() = 0;

    /**
     * Replay op @p item at one thread, calling the layers' public
     * functions in the order the driver runs them, each in a span.
     * The verdicts must equal those the untraced ops recorded.
     */
    virtual std::string replay(std::size_t item, Tracer &tracer,
                               ReplayCounts &counts) = 0;

    /**
     * Standalone re-measurement, after the last replayed op and outside
     * its spans, of sim::shared_candidates for the query's vulnerable
     * procedure against each target that op played a game on. The game
     * runs the same retrieval inside search_outcome (charged to
     * game.match), so this is a second, separate measurement.
     */
    virtual double retrieval_seconds() const = 0;

    /**
     * Shape check of a traced replay from the library's own counters
     * (snapshotted at trace::Level::Metrics) and @p counts.
     */
    virtual std::string replay_shape(
        const firmup::trace::Snapshot &counters,
        const ReplayCounts &counts) const = 0;
};

/**
 * Set up workload @p name ("ingest_cold", "hunt_warm", "hunt_hot") over
 * @p fixture, with stores under @p work_dir. Throws on an unknown name.
 */
std::unique_ptr<Workload> make_workload(const std::string &name,
                                        const Fixture &fixture,
                                        VerdictBook &book,
                                        const std::string &work_dir,
                                        unsigned threads);

}  // namespace perfbench
