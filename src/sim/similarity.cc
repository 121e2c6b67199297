#include "sim/similarity.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
#include <arm_neon.h>
#endif

#include "support/scheduler.h"
#include "support/trace.h"

namespace firmup::sim {

namespace {

const trace::Counter c_cand_exact("retrieval.candidates_exact");

/**
 * Always-on retrieval accounting (the trace counters above are gated on
 * the trace level; ScanHealth needs these regardless). Relaxed atomics:
 * monotonic totals, no ordering required.
 */
struct RetrievalAtomics
{
    std::atomic<std::uint64_t> probes_exact{0};
    std::atomic<std::uint64_t> candidates_exact{0};
};

RetrievalAtomics g_retrieval;

/**
 * First position in [first, last) not less than @p key, found by
 * exponential (galloping) probing followed by a bounded binary search.
 * Beats std::lower_bound when the answer is near the front — which it
 * is when intersecting a small sorted set against a huge one.
 */
const std::uint64_t *
gallop_lower_bound(const std::uint64_t *first, const std::uint64_t *last,
                   std::uint64_t key)
{
    const std::size_t n = static_cast<std::size_t>(last - first);
    std::size_t bound = 1;
    while (bound < n && first[bound] < key) {
        bound <<= 1;
    }
    return std::lower_bound(first + (bound >> 1),
                            first + std::min(bound + 1, n), key);
}

/**
 * Visit every hash shared by two flat strand sets, in ascending hash
 * order (the order matters: weighted_sim must accumulate bit-identically
 * no matter which side is smaller). Linear two-pointer merge for
 * comparable sizes, galloping from the smaller side when lopsided.
 */
template <typename OnShared>
void
for_each_shared(const std::uint64_t *a, std::size_t an,
                const std::uint64_t *b, std::size_t bn, OnShared &&on)
{
    const std::uint64_t *sp = a;
    std::size_t sn = an;
    const std::uint64_t *lp = b;
    std::size_t ln = bn;
    if (sn > ln) {
        std::swap(sp, lp);
        std::swap(sn, ln);
    }
    if (sn == 0) {
        return;
    }
    const std::uint64_t *s = sp;
    const std::uint64_t *se = s + sn;
    const std::uint64_t *l = lp;
    const std::uint64_t *le = l + ln;
    constexpr std::size_t kGallopRatio = 16;
    if (ln / sn >= kGallopRatio) {
        for (; s != se && l != le; ++s) {
            l = gallop_lower_bound(l, le, *s);
            if (l != le && *l == *s) {
                on(*s);
                ++l;
            }
        }
        return;
    }
    while (s != se && l != le) {
        if (*s < *l) {
            ++s;
        } else if (*l < *s) {
            ++l;
        } else {
            on(*s);
            ++s;
            ++l;
        }
    }
}

// ---- tiered intersection kernel ----------------------------------------
//
// Counting-only intersection (sim_score) does not need the ascending
// visit order for_each_shared guarantees, which frees the inner loops to
// use branchless and SIMD block compares. Every path below counts the
// exact set intersection; the property tests sweep all of them against
// the std::set reference and against sim_score_merge.

constexpr std::size_t kGallopRatio = 16;
/** Galloping binary searches stop at this window and scan it linearly. */
constexpr std::size_t kProbeWindow = 8;

#if defined(__SSE2__)
/** 64-bit lane equality out of SSE2 (cmpeq_epi64 needs SSE4.1). */
inline __m128i
eq_epi64_sse2(__m128i a, __m128i b)
{
    const __m128i eq32 = _mm_cmpeq_epi32(a, b);
    return _mm_and_si128(
        eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
}
#endif

int
merge_count_scalar(const std::uint64_t *a, const std::uint64_t *ae,
                   const std::uint64_t *b, const std::uint64_t *be)
{
    // Branchless two-pointer merge: the three-way compare of the classic
    // merge mispredicts on random sets; conditional increments do not.
    int shared = 0;
    while (a < ae && b < be) {
        const std::uint64_t x = *a;
        const std::uint64_t y = *b;
        shared += x == y;
        a += x <= y;
        b += y <= x;
    }
    return shared;
}

#if defined(__SSE2__)
int
merge_count_sse2(const std::uint64_t *a, const std::uint64_t *ae,
                 const std::uint64_t *b, const std::uint64_t *be)
{
    // 2x2 block merge: compare all four (a, b) pairings of two-element
    // blocks at once, then advance whichever block's maximum is not
    // larger. Unique sorted inputs mean each element matches at most
    // once across the whole sweep, so per-lane indicators sum exactly.
    int shared = 0;
    while (ae - a >= 2 && be - b >= 2) {
        const __m128i va =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(a));
        const __m128i vb =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(b));
        const __m128i vb_swap =
            _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2));
        const __m128i hit = _mm_or_si128(eq_epi64_sse2(va, vb),
                                         eq_epi64_sse2(va, vb_swap));
        const int mask = _mm_movemask_epi8(hit);
        shared += ((mask & 0x00ff) != 0) + ((mask & 0xff00) != 0);
        const std::uint64_t amax = a[1];
        const std::uint64_t bmax = b[1];
        a += amax <= bmax ? 2 : 0;
        b += bmax <= amax ? 2 : 0;
    }
    return shared + merge_count_scalar(a, ae, b, be);
}
#endif

#if defined(__aarch64__) || defined(__ARM_NEON)
int
merge_count_neon(const std::uint64_t *a, const std::uint64_t *ae,
                 const std::uint64_t *b, const std::uint64_t *be)
{
    int shared = 0;
    while (ae - a >= 2 && be - b >= 2) {
        const uint64x2_t va = vld1q_u64(a);
        const uint64x2_t vb = vld1q_u64(b);
        const uint64x2_t vb_swap = vextq_u64(vb, vb, 1);
        const uint64x2_t hit =
            vorrq_u64(vceqq_u64(va, vb), vceqq_u64(va, vb_swap));
        shared += static_cast<int>(vgetq_lane_u64(hit, 0) & 1) +
                  static_cast<int>(vgetq_lane_u64(hit, 1) & 1);
        const std::uint64_t amax = a[1];
        const std::uint64_t bmax = b[1];
        a += amax <= bmax ? 2 : 0;
        b += bmax <= amax ? 2 : 0;
    }
    return shared + merge_count_scalar(a, ae, b, be);
}
#endif

int
merge_count(const std::uint64_t *a, const std::uint64_t *ae,
            const std::uint64_t *b, const std::uint64_t *be, SimdTier tier)
{
#if defined(__SSE2__)
    if (tier == SimdTier::Sse2) {
        return merge_count_sse2(a, ae, b, be);
    }
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
    if (tier == SimdTier::Neon) {
        return merge_count_neon(a, ae, b, be);
    }
#endif
    (void)tier;
    return merge_count_scalar(a, ae, b, be);
}

/** Is @p key among the @p n elements at @p p? (final gallop window) */
bool
window_contains(const std::uint64_t *p, std::size_t n, std::uint64_t key,
                SimdTier tier)
{
#if defined(__SSE2__)
    if (tier == SimdTier::Sse2) {
        const __m128i k =
            _mm_set1_epi64x(static_cast<long long>(key));
        __m128i acc = _mm_setzero_si128();
        std::size_t i = 0;
        for (; i + 2 <= n; i += 2) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + i));
            acc = _mm_or_si128(acc, eq_epi64_sse2(v, k));
        }
        bool found = _mm_movemask_epi8(acc) != 0;
        if (i < n) {
            found |= p[i] == key;
        }
        return found;
    }
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
    if (tier == SimdTier::Neon) {
        const uint64x2_t k = vdupq_n_u64(key);
        uint64x2_t acc = vdupq_n_u64(0);
        std::size_t i = 0;
        for (; i + 2 <= n; i += 2) {
            acc = vorrq_u64(acc, vceqq_u64(vld1q_u64(p + i), k));
        }
        bool found =
            (vgetq_lane_u64(acc, 0) | vgetq_lane_u64(acc, 1)) != 0;
        if (i < n) {
            found |= p[i] == key;
        }
        return found;
    }
#endif
    (void)tier;
    bool found = false;
    for (std::size_t i = 0; i < n; ++i) {
        found |= p[i] == key;
    }
    return found;
}

/**
 * Lopsided intersection: gallop each small-side key into the large side,
 * bounding the binary search at kProbeWindow elements and scanning the
 * window with the tier's equality compare (the last few unpredictable
 * binary-search branches cost more than a vector sweep).
 */
int
gallop_count(const std::uint64_t *s, const std::uint64_t *se,
             const std::uint64_t *l, const std::uint64_t *le,
             SimdTier tier)
{
    int shared = 0;
    for (; s != se && l != le; ++s) {
        const std::uint64_t key = *s;
        const std::size_t n = static_cast<std::size_t>(le - l);
        std::size_t bound = 1;
        while (bound < n && l[bound] < key) {
            bound <<= 1;
        }
        // Invariant: any occurrence of key lies in [lo, hi).
        std::size_t lo = bound >> 1;
        std::size_t hi = std::min(bound + 1, n);
        bool found = false;
        while (hi - lo > kProbeWindow) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (l[mid] < key) {
                lo = mid + 1;
            } else if (l[mid] > key) {
                hi = mid;
            } else {
                found = true;
                break;
            }
        }
        if (!found) {
            found = window_contains(l + lo, hi - lo, key, tier);
        }
        shared += found ? 1 : 0;
        l += lo;  // monotone: everything below lo is < key < next key
    }
    return shared;
}

bool
tier_compiled_in(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Scalar:
        return true;
    case SimdTier::Sse2:
#if defined(__SSE2__)
        return true;
#else
        return false;
#endif
    case SimdTier::Neon:
#if defined(__aarch64__) || defined(__ARM_NEON)
        return true;
#else
        return false;
#endif
    }
    return false;
}

SimdTier
detect_tier()
{
    // FIRMUP_SIMD pins the instruction-set tier for ops and the
    // determinism sweeps; unset picks the best this binary carries.
    if (const char *env = std::getenv("FIRMUP_SIMD")) {
        if (std::strcmp(env, "scalar") == 0) {
            return SimdTier::Scalar;
        }
        if (std::strcmp(env, "sse2") == 0 &&
            tier_compiled_in(SimdTier::Sse2)) {
            return SimdTier::Sse2;
        }
        if (std::strcmp(env, "neon") == 0 &&
            tier_compiled_in(SimdTier::Neon)) {
            return SimdTier::Neon;
        }
    }
    if (tier_compiled_in(SimdTier::Sse2)) {
        return SimdTier::Sse2;
    }
    if (tier_compiled_in(SimdTier::Neon)) {
        return SimdTier::Neon;
    }
    return SimdTier::Scalar;
}

std::atomic<SimdTier> &
tier_state()
{
    static std::atomic<SimdTier> tier{detect_tier()};
    return tier;
}

}  // namespace

SimdTier
simd_tier()
{
    return tier_state().load(std::memory_order_relaxed);
}

void
set_simd_tier(SimdTier tier)
{
    if (!tier_compiled_in(tier)) {
        tier = SimdTier::Scalar;
    }
    tier_state().store(tier, std::memory_order_relaxed);
}

bool
simd_tier_available(SimdTier tier)
{
    return tier_compiled_in(tier);
}

const char *
simd_tier_name(SimdTier tier)
{
    switch (tier) {
    case SimdTier::Scalar:
        return "scalar";
    case SimdTier::Sse2:
        return "sse2";
    case SimdTier::Neon:
        return "neon";
    }
    return "scalar";
}

int
ExecutableIndex::find_by_entry(std::uint64_t addr) const
{
    if (search_ready) {
        const auto it = entry_map.find(addr);
        return it != entry_map.end() ? it->second : -1;
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i].entry == addr) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

int
ExecutableIndex::find_by_name(const std::string &proc_name) const
{
    if (search_ready) {
        const auto it = name_map.find(proc_name);
        return it != name_map.end() ? it->second : -1;
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i].name == proc_name) {
            return static_cast<int>(i);
        }
    }
    return -1;
}

std::size_t
ExecutableIndex::memory_bytes() const
{
    // Approximate accounting for the resident-cache byte budget: the
    // arena plus the per-procedure fixed state. Map/table overhead is
    // deliberately ignored — the budget is a ballast figure, not an
    // allocator audit.
    std::size_t bytes = sizeof(*this) + name.size() + arena_bytes;
    for (const ProcEntry &proc : procs) {
        bytes += sizeof(ProcEntry) + proc.name.size();
        bytes += proc.repr.hashes.size() * sizeof(std::uint64_t);
    }
    // entry_map / name_map: one entry per procedure each, roughly.
    bytes += procs.size() * 2 * sizeof(std::uint64_t) * 2;
    return bytes;
}

ExecutableIndex
index_executable(const lifter::LiftedExecutable &lifted,
                 strand::CanonOptions options, unsigned threads)
{
    const trace::TraceSpan span("index", lifted.name);
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    // Memo entries never cross ISAs, even though µIR statements alone
    // already determine the canonical form (see CanonOptions).
    options.memo_context = static_cast<std::uint64_t>(lifted.arch);

    ExecutableIndex index;
    index.name = lifted.name;
    index.arch = lifted.arch;
    index.procs.resize(lifted.procs.size());
    std::vector<const ir::Procedure *> order;
    order.reserve(lifted.procs.size());
    for (const auto &[entry, proc] : lifted.procs) {
        const std::size_t slot = order.size();
        order.push_back(&proc);
        index.procs[slot].entry = entry;
        index.procs[slot].name = proc.name;
    }
    const auto represent_slot = [&](std::size_t slot) {
        index.procs[slot].repr =
            strand::represent_procedure(*order[slot], options);
    };
    // Procedures are independent units of work; each writes only its
    // own pre-sized slot, so any schedule yields the same index. Small
    // executables (fuzz mutants, single-proc fixtures) stay inline on
    // the caller — spawning workers costs more than it saves there.
    constexpr std::size_t kParallelThreshold = 4;
    WorkStealingScheduler::run(
        order.size() >= kParallelThreshold ? threads : 1, order.size(),
        represent_slot);
    index.finalize();
    return index;
}

int
sim_score(const strand::ProcedureStrands &q,
          const strand::ProcedureStrands &t)
{
    if (q.hash_empty() || t.hash_empty()) {
        return 0;
    }
    const SimdTier tier = simd_tier();
    const strand::ProcedureStrands *small = &q;
    const strand::ProcedureStrands *large = &t;
    if (small->hash_count() > large->hash_count()) {
        std::swap(small, large);
    }
    const bool lopsided =
        large->hash_count() / small->hash_count() >= kGallopRatio;
    if (q.summary_built && t.summary_built) {
        const std::uint64_t common[4] = {
            q.bucket_bits[0] & t.bucket_bits[0],
            q.bucket_bits[1] & t.bucket_bits[1],
            q.bucket_bits[2] & t.bucket_bits[2],
            q.bucket_bits[3] & t.bucket_bits[3],
        };
        if ((common[0] | common[1] | common[2] | common[3]) == 0) {
            return 0;  // disjoint bucket occupancy: exact zero
        }
        if (lopsided) {
            return gallop_count(
                small->hash_data(),
                small->hash_data() + small->hash_count(),
                large->hash_data(),
                large->hash_data() + large->hash_count(), tier);
        }
        // Comparable sizes: merge the matching per-word spans, skipping
        // whole spans whose common occupancy is zero.
        int shared = 0;
        for (unsigned w = 0; w < 4; ++w) {
            if (common[w] == 0) {
                continue;
            }
            shared += merge_count(
                q.hash_data() + q.word_offsets[w],
                q.hash_data() + q.word_offsets[w + 1],
                t.hash_data() + t.word_offsets[w],
                t.hash_data() + t.word_offsets[w + 1], tier);
        }
        return shared;
    }
    // Hand-assembled sets without summaries: same kernels, full spans.
    if (lopsided) {
        return gallop_count(small->hash_data(),
                            small->hash_data() + small->hash_count(),
                            large->hash_data(),
                            large->hash_data() + large->hash_count(),
                            tier);
    }
    return merge_count(q.hash_data(),
                       q.hash_data() + q.hash_count(),
                       t.hash_data(), t.hash_data() + t.hash_count(),
                       tier);
}

int
sim_score_merge(const strand::ProcedureStrands &q,
                const strand::ProcedureStrands &t)
{
    int shared = 0;
    for_each_shared(q.hash_data(), q.hash_count(), t.hash_data(),
                    t.hash_count(), [&shared](std::uint64_t) { ++shared; });
    return shared;
}

// ---- query-amortized probe kernel --------------------------------------

namespace {

/** Buckets stop doubling here; beyond it the probe falls back to merge. */
constexpr std::uint32_t kMaxBuckets = 1u << 15;

/**
 * Exact membership of @p h in its 8-slot bucket. Empty slots hold zero
 * and are masked off by @p valid, so a zero-valued hash can never
 * produce a phantom match.
 */
inline int
bucket_contains(const std::uint64_t *slots, std::uint8_t valid,
                std::uint64_t h, SimdTier tier)
{
#if defined(__SSE2__)
    if (tier == SimdTier::Sse2) {
        const __m128i key = _mm_set1_epi64x(static_cast<long long>(h));
        const __m128i *s = reinterpret_cast<const __m128i *>(slots);
        const __m128i e0 = eq_epi64_sse2(_mm_loadu_si128(s + 0), key);
        const __m128i e1 = eq_epi64_sse2(_mm_loadu_si128(s + 1), key);
        const __m128i e2 = eq_epi64_sse2(_mm_loadu_si128(s + 2), key);
        const __m128i e3 = eq_epi64_sse2(_mm_loadu_si128(s + 3), key);
        const int hits =
            _mm_movemask_pd(_mm_castsi128_pd(e0)) |
            (_mm_movemask_pd(_mm_castsi128_pd(e1)) << 2) |
            (_mm_movemask_pd(_mm_castsi128_pd(e2)) << 4) |
            (_mm_movemask_pd(_mm_castsi128_pd(e3)) << 6);
        return (hits & valid) != 0 ? 1 : 0;
    }
#endif
#if defined(__aarch64__) || defined(__ARM_NEON)
    if (tier == SimdTier::Neon) {
        const uint64x2_t key = vdupq_n_u64(h);
        const uint64x2_t e0 = vceqq_u64(vld1q_u64(slots + 0), key);
        const uint64x2_t e1 = vceqq_u64(vld1q_u64(slots + 2), key);
        const uint64x2_t e2 = vceqq_u64(vld1q_u64(slots + 4), key);
        const uint64x2_t e3 = vceqq_u64(vld1q_u64(slots + 6), key);
        const int hits =
            static_cast<int>(vgetq_lane_u64(e0, 0) & 1) |
            static_cast<int>(vgetq_lane_u64(e0, 1) & 2) |
            static_cast<int>((vgetq_lane_u64(e1, 0) & 1) << 2) |
            static_cast<int>((vgetq_lane_u64(e1, 1) & 2) << 2) |
            static_cast<int>((vgetq_lane_u64(e2, 0) & 1) << 4) |
            static_cast<int>((vgetq_lane_u64(e2, 1) & 2) << 4) |
            static_cast<int>((vgetq_lane_u64(e3, 0) & 1) << 6) |
            static_cast<int>((vgetq_lane_u64(e3, 1) & 2) << 6);
        return (hits & valid) != 0 ? 1 : 0;
    }
#endif
    (void)tier;
    int found = 0;
    for (unsigned s = 0; s < 8; ++s) {
        found |= ((valid >> s) & 1) & (slots[s] == h ? 1 : 0);
    }
    return found;
}

/**
 * Filter pass: test every target hash against the query bitmap,
 * appending survivors to @p cand branchlessly (store-then-advance; a
 * mispredicting per-element branch would cost more than the dead
 * stores). Returns the candidate count.
 */
std::size_t
probe_filter(const std::uint64_t *bm, const std::uint64_t *p,
             std::size_t n, std::uint64_t *cand)
{
    std::size_t c = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const std::uint64_t h0 = p[i];
        const std::uint64_t h1 = p[i + 1];
        const std::uint64_t h2 = p[i + 2];
        const std::uint64_t h3 = p[i + 3];
        const std::uint32_t x0 = h0 & 0xffff;
        const std::uint32_t x1 = h1 & 0xffff;
        const std::uint32_t x2 = h2 & 0xffff;
        const std::uint32_t x3 = h3 & 0xffff;
        const std::uint64_t b0 = (bm[x0 >> 6] >> (x0 & 63)) & 1;
        const std::uint64_t b1 = (bm[x1 >> 6] >> (x1 & 63)) & 1;
        const std::uint64_t b2 = (bm[x2 >> 6] >> (x2 & 63)) & 1;
        const std::uint64_t b3 = (bm[x3 >> 6] >> (x3 & 63)) & 1;
        cand[c] = h0;
        c += b0;
        cand[c] = h1;
        c += b1;
        cand[c] = h2;
        c += b2;
        cand[c] = h3;
        c += b3;
    }
    for (; i < n; ++i) {
        const std::uint64_t h = p[i];
        const std::uint32_t x = h & 0xffff;
        cand[c] = h;
        c += (bm[x >> 6] >> (x & 63)) & 1;
    }
    return c;
}

#if defined(__x86_64__) || defined(__i386__)
/**
 * Same filter, compiled with BMI2 so the variable bit-test shifts are
 * single-uop shrx instead of the two-uop flag-merging shr %cl.
 */
__attribute__((target("bmi2"))) std::size_t
probe_filter_bmi2(const std::uint64_t *bm, const std::uint64_t *p,
                  std::size_t n, std::uint64_t *cand)
{
    std::size_t c = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const std::uint64_t h0 = p[i];
        const std::uint64_t h1 = p[i + 1];
        const std::uint64_t h2 = p[i + 2];
        const std::uint64_t h3 = p[i + 3];
        const std::uint32_t x0 = h0 & 0xffff;
        const std::uint32_t x1 = h1 & 0xffff;
        const std::uint32_t x2 = h2 & 0xffff;
        const std::uint32_t x3 = h3 & 0xffff;
        const std::uint64_t b0 = (bm[x0 >> 6] >> (x0 & 63)) & 1;
        const std::uint64_t b1 = (bm[x1 >> 6] >> (x1 & 63)) & 1;
        const std::uint64_t b2 = (bm[x2 >> 6] >> (x2 & 63)) & 1;
        const std::uint64_t b3 = (bm[x3 >> 6] >> (x3 & 63)) & 1;
        cand[c] = h0;
        c += b0;
        cand[c] = h1;
        c += b1;
        cand[c] = h2;
        c += b2;
        cand[c] = h3;
        c += b3;
    }
    for (; i < n; ++i) {
        const std::uint64_t h = p[i];
        const std::uint32_t x = h & 0xffff;
        cand[c] = h;
        c += (bm[x >> 6] >> (x & 63)) & 1;
    }
    return c;
}

bool
have_bmi2()
{
    static const bool have = __builtin_cpu_supports("bmi2");
    return have;
}
#endif

std::size_t
run_probe_filter(const std::uint64_t *bm, const std::uint64_t *p,
                 std::size_t n, std::uint64_t *cand)
{
#if defined(__x86_64__) || defined(__i386__)
    if (have_bmi2()) {
        return probe_filter_bmi2(bm, p, n, cand);
    }
#endif
    return probe_filter(bm, p, n, cand);
}

}  // namespace

void
QueryProbe::reset(const strand::ProcedureStrands &q)
{
    const std::uint64_t *qh = q.hash_data();
    const std::size_t nq = q.hash_count();
    query_size_ = nq;
    fallback_.clear();
    bitmap_.assign(1024, 0);
    std::uint32_t nbuckets = 16;
    while (nbuckets * 4 < nq && nbuckets < kMaxBuckets) {
        nbuckets <<= 1;
    }
    for (;;) {
        bucket_mask_ = nbuckets - 1;
        slots_.assign(static_cast<std::size_t>(nbuckets) * 8, 0);
        valid_.assign(nbuckets, 0);
        bool overflow = false;
        for (std::size_t i = 0; i < nq; ++i) {
            const std::uint64_t h = qh[i];
            const std::uint32_t b =
                static_cast<std::uint32_t>(h >> 16) & bucket_mask_;
            const unsigned c = static_cast<unsigned>(
                __builtin_popcount(valid_[b]));
            if (c >= 8) {
                overflow = true;
                break;
            }
            slots_[static_cast<std::size_t>(b) * 8 + c] = h;
            valid_[b] = static_cast<std::uint8_t>(valid_[b] | (1u << c));
        }
        if (!overflow) {
            break;
        }
        if (nbuckets >= kMaxBuckets) {
            // > 8 query hashes sharing bits 16..30: adversarial input.
            // Keep a sorted copy and let score() take the merge path.
            fallback_.assign(qh, qh + nq);
            break;
        }
        nbuckets <<= 1;
    }
    for (std::size_t i = 0; i < nq; ++i) {
        const std::uint32_t idx =
            static_cast<std::uint32_t>(qh[i] & 0xffff);
        bitmap_[idx >> 6] |= 1ull << (idx & 63);
    }
}

int
QueryProbe::score(const std::uint64_t *t, std::size_t n) const
{
    if (n == 0 || query_size_ == 0) {
        return 0;
    }
    if (!fallback_.empty()) {
        const SimdTier tier = simd_tier();
        if (n / fallback_.size() >= kGallopRatio ||
            fallback_.size() / n >= kGallopRatio) {
            const bool query_small = fallback_.size() <= n;
            const std::uint64_t *s =
                query_small ? fallback_.data() : t;
            const std::uint64_t *se =
                query_small ? fallback_.data() + fallback_.size() : t + n;
            const std::uint64_t *l =
                query_small ? t : fallback_.data();
            const std::uint64_t *le =
                query_small ? t + n : fallback_.data() + fallback_.size();
            return gallop_count(s, se, l, le, tier);
        }
        return merge_count(fallback_.data(),
                           fallback_.data() + fallback_.size(), t, t + n,
                           tier);
    }
    // The candidate buffer is per-thread so one built probe can be
    // scored concurrently from many workers.
    static thread_local std::vector<std::uint64_t> cand;
    if (cand.size() < n) {
        cand.resize(n);
    }
    const std::size_t c =
        run_probe_filter(bitmap_.data(), t, n, cand.data());
    const SimdTier tier = simd_tier();
    int shared = 0;
    for (std::size_t k = 0; k < c; ++k) {
        const std::uint64_t h = cand[k];
        const std::uint32_t b =
            static_cast<std::uint32_t>(h >> 16) & bucket_mask_;
        shared += bucket_contains(
            slots_.data() + static_cast<std::size_t>(b) * 8, valid_[b], h,
            tier);
    }
    return shared;
}

int
QueryProbe::score(const strand::ProcedureStrands &t) const
{
    return score(t.hash_data(), t.hash_count());
}

std::vector<Candidate>
shared_candidates(const ExecutableIndex &T,
                  const strand::ProcedureStrands &q,
                  ScoringStats *stats)
{
    std::vector<Candidate> out;
    if (T.procs.empty() || q.hash_empty()) {
        return out;
    }
    ScoringStats local;
    if (!T.search_ready) {
        // Dense fallback for hand-assembled indexes: one query against
        // every procedure — the query-amortized probe's home turf.
        const QueryProbe probe(q);
        for (std::size_t i = 0; i < T.procs.size(); ++i) {
            const int s = probe.score(T.procs[i].repr);
            ++local.pairs_scored;
            local.elem_ops +=
                q.hash_count() + T.procs[i].repr.hash_count();
            if (s > 0) {
                out.push_back({static_cast<int>(i), s});
            }
        }
        if (stats != nullptr) {
            stats->pairs_scored += local.pairs_scored;
            stats->elem_ops += local.elem_ops;
        }
        g_retrieval.probes_exact.fetch_add(1, std::memory_order_relaxed);
        g_retrieval.candidates_exact.fetch_add(
            local.pairs_scored, std::memory_order_relaxed);
        c_cand_exact.add(local.pairs_scored);
        return out;
    }
    // Accumulate shared counts over the posting lists of q's strands:
    // only procedures sharing at least one strand are ever touched.
    std::vector<int> counts(T.procs.size(), 0);
    std::vector<std::uint32_t> touched;
    const std::uint64_t *base = T.posting_hash_data();
    const std::uint32_t *offsets = T.posting_offset_data();
    const std::uint32_t *plist = T.posting_proc_data();
    const std::uint64_t *ph = base;
    const std::uint64_t *pe = base + T.posting_hash_count();
    const std::uint64_t *qh = q.hash_data();
    const std::uint64_t *qe = qh + q.hash_count();
    for (; qh != qe; ++qh) {
        const std::uint64_t h = *qh;
        ++local.elem_ops;  // one probe per query hash
        ph = gallop_lower_bound(ph, pe, h);
        if (ph == pe) {
            break;
        }
        if (*ph != h) {
            continue;
        }
        const std::size_t row = static_cast<std::size_t>(ph - base);
        const std::uint32_t lo = offsets[row];
        const std::uint32_t hi = offsets[row + 1];
        for (std::uint32_t j = lo; j < hi; ++j) {
            const std::uint32_t proc = plist[j];
            ++local.elem_ops;  // one accumulation per incidence
            if (counts[proc]++ == 0) {
                touched.push_back(proc);
                ++local.pairs_scored;
            }
        }
    }
    std::sort(touched.begin(), touched.end());
    out.reserve(touched.size());
    for (std::uint32_t proc : touched) {
        out.push_back({static_cast<int>(proc), counts[proc]});
    }
    if (stats != nullptr) {
        stats->pairs_scored += local.pairs_scored;
        stats->elem_ops += local.elem_ops;
    }
    g_retrieval.probes_exact.fetch_add(1, std::memory_order_relaxed);
    g_retrieval.candidates_exact.fetch_add(local.pairs_scored,
                                           std::memory_order_relaxed);
    c_cand_exact.add(local.pairs_scored);
    return out;
}

RetrievalCounters
retrieval_counters()
{
    RetrievalCounters out;
    out.probes_exact =
        g_retrieval.probes_exact.load(std::memory_order_relaxed);
    out.candidates_exact =
        g_retrieval.candidates_exact.load(std::memory_order_relaxed);
    return out;
}

double
GlobalContext::weight_of(std::uint64_t hash) const
{
    const auto it = weights.find(hash);
    return it != weights.end() ? it->second : default_weight;
}

GlobalContext
train_global_context(const std::vector<const ExecutableIndex *> &sample)
{
    GlobalContext context;
    std::map<std::uint64_t, int> counts;
    int total_procs = 0;
    for (const ExecutableIndex *index : sample) {
        for (const ProcEntry &proc : index->procs) {
            ++total_procs;
            const std::uint64_t *h = proc.repr.hash_data();
            const std::uint64_t *he = h + proc.repr.hash_count();
            for (; h != he; ++h) {
                ++counts[*h];
            }
        }
    }
    if (total_procs == 0) {
        return context;
    }
    // -log document frequency, as in statistical significance weighting:
    // a strand appearing in every procedure carries no evidence.
    for (const auto &[hash, count] : counts) {
        const double df =
            static_cast<double>(count) / static_cast<double>(total_procs);
        context.weights[hash] = std::max(0.05, -std::log(df));
    }
    // Unseen strands are maximally surprising.
    context.default_weight = -std::log(0.5 / total_procs);
    return context;
}

double
weighted_sim(const strand::ProcedureStrands &q,
             const strand::ProcedureStrands &t,
             const GlobalContext &context)
{
    double score = 0.0;
    for_each_shared(q.hash_data(), q.hash_count(), t.hash_data(),
                    t.hash_count(),
                    [&](std::uint64_t h) { score += context.weight_of(h); });
    return score;
}

}  // namespace firmup::sim
