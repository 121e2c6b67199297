/**
 * @file
 * Pairwise procedure similarity (paper section 3.3) and executable
 * indexes.
 *
 * Sim(q, t) = |Strands(q) ∩ Strands(t)| over hashed canonical strands —
 * a plain set intersection with no counts, exactly as the paper defines
 * it. Strand sets are sorted flat vectors, so the intersection is a
 * two-pointer merge (with galloping when the sizes are lopsided) rather
 * than per-hash tree lookups.
 *
 * An ExecutableIndex is the unit both the game and the baselines operate
 * on: every procedure of one executable, represented as strand hash
 * sets, plus — once finalize() has packed it into its FWIX v6 arena —
 * the search acceleration structures that make corpus-scale matching
 * cheap: a CSR inverted index (strand hash → posting list of procedure
 * indices) and hashed entry/name lookup maps. Most (q, t) procedure
 * pairs in a corpus share zero strands; the posting lists let
 * GetBestMatch touch only the pairs that share at least one.
 */
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lifter/cfg.h"
#include "strand/canon.h"

namespace firmup::sim {

/** One indexed procedure. */
struct ProcEntry
{
    std::uint64_t entry = 0;
    std::string name;  ///< empty when stripped
    strand::ProcedureStrands repr;
};

/** One candidate from the inverted index: a procedure and its exact Sim. */
struct Candidate
{
    int index = -1;  ///< into ExecutableIndex::procs
    int sim = 0;     ///< |shared strands| — exact, not an estimate
};

/**
 * Process-wide retrieval accounting (monotonic, thread-safe), the
 * always-on analogue of the trace counters so ScanHealth can report
 * retrieval work at any trace level. Drivers snapshot it before a
 * scan and attribute the delta (eval/health.h).
 */
struct RetrievalCounters
{
    std::uint64_t probes_exact = 0;     ///< shared_candidates() calls
    std::uint64_t candidates_exact = 0; ///< procedures they scored
    /// Always 0; kept because perfbench/harness/workloads.cc reads it.
    std::uint64_t sketch_micros = 0;
};

/** Snapshot of the process-wide retrieval counters. */
RetrievalCounters retrieval_counters();

/**
 * All procedures of one executable, represented for similarity search.
 *
 * An index has exactly one representation once finalize() has run (or
 * it was loaded from a store): an FWIX v6 arena (sim/persist.h) holding
 * every procedure's strand hashes and the CSR postings, with `procs`
 * carrying only the O(procs) fixed state (entry, name, counts, block
 * summary) and hash spans that point into the arena. The arena is a
 * heap buffer for a freshly built index and the mapped store entry for
 * a loaded one; `backing` keeps either alive, so copies of the index
 * (and of its procedures, while a copy of the index lives) share it.
 *
 * A hand-built index that never calls finalize() keeps its owning
 * `repr.hashes` vectors and no postings; every consumer then falls
 * back to a dense scan and the linear find_by_* lookups — the
 * reference paths the property tests compare the fast ones against.
 */
struct ExecutableIndex
{
    std::string name;
    isa::Arch arch = isa::Arch::Mips32;
    std::vector<ProcEntry> procs;

    /**
     * CSR inverted index, viewed in the arena (set by open_index_view;
     * read through the accessors below): the posting hashes are the
     * sorted union of all strand hashes; the procedures containing
     * posting hash i are posting_proc_data()[posting_offset_data()[i]
     * .. posting_offset_data()[i + 1]), in ascending procedure order.
     */
    const std::uint64_t *posting_hash_ptr = nullptr;
    const std::uint32_t *posting_offset_ptr = nullptr;  ///< count + 1
    const std::uint32_t *posting_proc_ptr = nullptr;
    std::uint32_t posting_count = 0;        ///< distinct hashes
    std::uint32_t posting_incidences = 0;   ///< total (hash, proc) pairs
    bool search_ready = false;  ///< arena + lookup maps are built

    /**
     * Keepalive of the arena every posting pointer and every
     * procs[i].repr.hash_view points into: a ByteBuffer for a built or
     * read-in index, a MappedFile for an mmap'ed store entry. The
     * pages outlive every copy, so resident-cache eviction can never
     * invalidate an in-use index. Null until finalize().
     */
    std::shared_ptr<const void> backing;
    const std::uint8_t *arena = nullptr;  ///< the FWIX v6 blob
    std::size_t arena_bytes = 0;

    /** Hashed lookup maps (satellite of the posting build). */
    std::unordered_map<std::uint64_t, int> entry_map;
    std::unordered_map<std::string, int> name_map;

    /**
     * Pack `procs` and the CSR postings into a fresh FWIX v6 arena and
     * re-open this index as a view over it (defined in persist.cc —
     * the arena writer and reader live together). Each procedure's
     * owning hash vector is released once packed; unsorted hand-built
     * sets are sorted and deduplicated first. Re-running it (e.g. after
     * renaming procedures) re-packs from the live spans. Called by
     * index_executable(); call it yourself after assembling an index by
     * hand to get the fast paths.
     */
    void finalize();

    /** Index of the procedure whose entry is @p addr, or -1. */
    int find_by_entry(std::uint64_t addr) const;
    /** Index of the first procedure named @p name, or -1. */
    int find_by_name(const std::string &name) const;

    /** Sorted union of strand hashes. */
    const std::uint64_t *
    posting_hash_data() const
    {
        return posting_hash_ptr;
    }

    std::size_t posting_hash_count() const { return posting_count; }

    /** CSR row offsets; posting_hash_count() + 1 entries when built. */
    const std::uint32_t *
    posting_offset_data() const
    {
        return posting_offset_ptr;
    }

    /** CSR column (procedure) indices. */
    const std::uint32_t *
    posting_proc_data() const
    {
        return posting_proc_ptr;
    }

    std::size_t posting_proc_count() const { return posting_incidences; }

    /**
     * Approximate bytes this index keeps resident — the accounting
     * unit of the ResidentIndexCache byte budget: the arena plus the
     * fixed per-procedure state (and, before finalize(), the owning
     * hash vectors).
     */
    std::size_t memory_bytes() const;
};

/**
 * Build the index of a lifted executable. Canonicalization knobs are
 * taken from @p options; section ranges are filled in from @p lifted and
 * the memo context is pinned to the executable's ISA.
 *
 * @param threads fan procedure canonicalization across this many worker
 *        threads. The result is bit-identical for every thread count:
 *        procedures are written into pre-sized slots, so the merge order
 *        is the deterministic procedure order of @p lifted. Values <= 1
 *        (and small executables) run inline.
 */
ExecutableIndex index_executable(const lifter::LiftedExecutable &lifted,
                                 strand::CanonOptions options = {},
                                 unsigned threads = 1);

/**
 * SIMD instruction set used by the intersection kernel's inner loops.
 * The kernel itself is tiered by pair shape (see sim_score); each tier's
 * inner loop is then dispatched at runtime to the best available
 * instruction set, with Scalar as the portable fallback. Every tier and
 * every instruction set produces bit-identical counts.
 */
enum class SimdTier
{
    Scalar,
    Sse2,
    Neon,
};

/** The active instruction-set tier (set_simd_tier or FIRMUP_SIMD). */
SimdTier simd_tier();

/**
 * Force the instruction-set tier (test/bench seam; the property tests
 * sweep every tier against the std::set reference). Requesting an
 * unavailable tier clamps to Scalar. The FIRMUP_SIMD environment
 * variable ("scalar", "sse2", "neon") sets the initial tier; unset
 * picks the best the binary and CPU support.
 */
void set_simd_tier(SimdTier tier);

/** True when @p tier's instructions are compiled into this binary. */
bool simd_tier_available(SimdTier tier);

/** Stable lowercase name of @p tier ("scalar", "sse2", "neon"). */
const char *simd_tier_name(SimdTier tier);

/**
 * Sim(q, t): the number of shared canonical strands.
 *
 * Tiered intersection kernel over the sorted flat hash vectors:
 *  - summary reject: AND the 256-bit bucket-occupancy bitmaps; a zero
 *    intersection answers 0 without touching the hash vectors;
 *  - lopsided pairs (>= 16x size ratio) gallop from the small side,
 *    with a SIMD equality scan over the final search window;
 *  - comparable pairs run a block merge over the per-word spans of the
 *    summary, skipping spans whose common occupancy bits are zero —
 *    SSE2/NEON all-pairs block compare, branchless scalar fallback.
 * Exact by construction: every tier counts the same intersection the
 * reference merge does (sim_score_merge), bit-identically.
 */
int sim_score(const strand::ProcedureStrands &q,
              const strand::ProcedureStrands &t);

/**
 * Reference merge intersection (the pre-kernel two-pointer/galloping
 * path). Kept callable as the benchmark baseline and the property-test
 * oracle for sim_score.
 */
int sim_score_merge(const strand::ProcedureStrands &q,
                    const strand::ProcedureStrands &t);

/**
 * Query-amortized intersection kernel: build once per query, score many
 * targets. This is the shape every hot caller actually has — one CVE
 * query played against a whole corpus, one query against every
 * procedure of a target executable — and amortizing the query-side
 * build is what a pairwise merge can never do: scoring a target costs
 * one branchless filter pass over its hashes plus an exact probe per
 * surviving candidate, with no data-dependent merge branches at all.
 *
 * Layout (all query-side, built by reset()):
 *  - an 8 KiB bitmap over the low 16 bits of the query's hashes — the
 *    filter pass tests each target hash against it branchlessly and
 *    emits survivors to a candidate buffer (false-positive rate
 *    |q| / 65536, so candidates ~= true matches);
 *  - an 8-slot bucket table keyed by hash bits 16.. for the exact
 *    64-bit verify of each candidate (SIMD across the 8 slots). Bucket
 *    counts are rebuilt with doubled bucket counts on overflow, so the
 *    verify is exact for any input; a pathological query falls back to
 *    the merge kernel.
 *
 * score() is exact — bit-identical to sim_score and sim_score_merge
 * for every input (property-tested) — and thread-safe: concurrent
 * score() calls against one built QueryProbe are safe, which is what
 * lets the batch scheduler share one probe per query across workers.
 */
class QueryProbe
{
public:
    QueryProbe() = default;
    explicit QueryProbe(const strand::ProcedureStrands &q) { reset(q); }

    /** (Re)build the filter + verify tables from @p q. */
    void reset(const strand::ProcedureStrands &q);

    /** Exact |q ∩ t| against the query given to reset(). */
    int score(const strand::ProcedureStrands &t) const;
    /** Same, over a raw sorted unique hash span. */
    int score(const std::uint64_t *t, std::size_t n) const;

    /** Number of hashes in the query this probe was built from. */
    std::size_t query_size() const { return query_size_; }

private:
    std::vector<std::uint64_t> bitmap_;  ///< 1024 words / 64 Ki bits
    std::vector<std::uint64_t> slots_;   ///< buckets x 8 hash slots
    std::vector<std::uint8_t> valid_;    ///< per-bucket slot occupancy
    std::vector<std::uint64_t> fallback_;  ///< sorted query copy (rare)
    std::uint32_t bucket_mask_ = 0;
    std::size_t query_size_ = 0;
};

/** Work accounting for one or more shared_candidates calls. */
struct ScoringStats
{
    /** Pair scores produced: one per procedure whose Sim was computed. */
    std::uint64_t pairs_scored = 0;
    /**
     * Element-level scoring operations: posting-list accumulations plus
     * query-hash probes on the fast path; merge-length (|q|+|t|) per
     * pair on the dense fallback. This is the unit in which the old
     * dense GetBestMatch paid |q|+|t| per pair per call.
     */
    std::uint64_t elem_ops = 0;
};

/**
 * Every procedure of @p T sharing at least one strand with @p q, with
 * its exact Sim, in ascending procedure-index order. Uses the posting
 * lists when built (touching only procedures that share a strand, the
 * VulMatch-style signature pruning); otherwise scores every procedure.
 * @param stats when non-null, accumulates the scoring work performed —
 *        the game's "pairwise scoring operations" metric.
 */
std::vector<Candidate> shared_candidates(
    const ExecutableIndex &T, const strand::ProcedureStrands &q,
    ScoringStats *stats = nullptr);

/**
 * Statistical strand weights trained from a sample of procedures — the
 * "global context" of GitZ: common strands (prologue shapes, trivial
 * moves) carry little evidence, rare strands carry much.
 */
struct GlobalContext
{
    std::map<std::uint64_t, double> weights;
    double default_weight = 1.0;

    double weight_of(std::uint64_t hash) const;
};

/** Train a global context over all procedures in @p sample. */
GlobalContext train_global_context(
    const std::vector<const ExecutableIndex *> &sample);

/** Weighted similarity: sum of weights of shared strands. */
double weighted_sim(const strand::ProcedureStrands &q,
                    const strand::ProcedureStrands &t,
                    const GlobalContext &context);

}  // namespace firmup::sim
