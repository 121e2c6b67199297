/**
 * @file
 * Hostile-input coverage for the FWIX v6 index container.
 *
 * The persistent index cache (sim::IndexCacheStore) opens whatever bytes
 * it finds on disk as an index view (open_index_view) — over the mapped
 * file, or over a read-in buffer when it does not map — so a corrupt,
 * truncated or stale cache entry must always come back as a clean
 * Result error — never a crash, and never a silently wrong index. The
 * harness runs a real serialized index through the support/faultinject
 * mutators across many seeds and asserts exactly that for the view
 * open and for the store's read-into-buffer load: a mutant either
 * equals the original byte-for-byte (and opens to the same index) or
 * fails to load. The v6 flat layout gets its own targeted sweeps:
 * checksum-repaired mutants that reach the directory and proc-record
 * field guards (arena bounds and alignment, flag strictness, the
 * search-ready flag, per-procedure hash spans), and older format
 * versions must read as stale cache misses.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "codegen/build.h"
#include "eval/driver.h"
#include "firmware/catalog.h"
#include "index_spans.h"
#include "lifter/cfg.h"
#include "sim/index_cache.h"
#include "sim/persist.h"
#include "sim/similarity.h"
#include "support/bytes.h"
#include "support/faultinject.h"
#include "support/hash.h"
#include "support/rng.h"

namespace firmup::sim {
namespace {

/** A real executable: libexif 0.6.19 built for MIPS. */
const loader::Executable &
real_executable()
{
    static const loader::Executable exe = [] {
        const auto &pkg = firmware::package_by_name("libexif");
        const auto source =
            firmware::generate_package_source(pkg, "0.6.19");
        codegen::BuildRequest request;
        request.arch = isa::Arch::Mips32;
        request.profile = compiler::gcc_like_toolchain();
        return codegen::build_executable(source, request);
    }();
    return exe;
}

/** A real finalized index (the shape the cache store persists). */
const ExecutableIndex &
real_index()
{
    static const ExecutableIndex index = [] {
        ExecutableIndex built = index_executable(
            lifter::lift_executable(real_executable()).take());
        built.finalize();
        return built;
    }();
    return index;
}

/** Search-relevant equality of two indexes. */
void
expect_same_index(const ExecutableIndex &a, const ExecutableIndex &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.arch, b.arch);
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (std::size_t i = 0; i < a.procs.size(); ++i) {
        EXPECT_EQ(a.procs[i].entry, b.procs[i].entry);
        EXPECT_EQ(a.procs[i].name, b.procs[i].name);
        EXPECT_EQ(live_hashes(a.procs[i].repr), live_hashes(b.procs[i].repr));
    }
    EXPECT_EQ(posting_hashes_of(a), posting_hashes_of(b));
    EXPECT_EQ(posting_offsets_of(a), posting_offsets_of(b));
    EXPECT_EQ(posting_procs_of(a), posting_procs_of(b));
}

/** Open @p bytes as a view (the blob must outlive the result). */
Result<ExecutableIndex>
view_of(const ByteBuffer &bytes)
{
    return open_index_view(bytes.data(), bytes.size(), nullptr);
}

/**
 * Load @p bytes the way the store does when it does not map: publish
 * them as a store entry, then read it into a buffer and open the view.
 * Each test gets its own store directory (ctest runs tests in parallel).
 */
Result<ExecutableIndex>
load_buffered(const ByteBuffer &bytes)
{
    const std::string dir =
        (std::filesystem::path(testing::TempDir()) /
         (std::string("firmup-persist-buffered-") +
          testing::UnitTest::GetInstance()->current_test_info()->name()))
            .string();
    const IndexCacheStore store(dir);
    {
        std::ofstream out(store.path_for(1),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    return store.load(1, /*use_mmap=*/false);
}

TEST(PersistFault, EveryMutantFailsCleanlyOrIsTheOriginal)
{
    const ByteBuffer bytes = serialize_index(real_index());
    fault::InjectOptions options;
    options.magic = {'F', 'W', 'I', 'X'};
    const fault::Mutation kinds[] = {
        fault::Mutation::Truncate,
        fault::Mutation::BitFlip,
        fault::Mutation::SpliceGarbage,
        fault::Mutation::DuplicateMagic,
    };
    int rejected = 0;
    for (const fault::Mutation kind : kinds) {
        for (std::uint64_t seed = 0; seed < 64; ++seed) {
            Rng rng(0xfa017 ^ (seed * 0x9e3779b97f4a7c15ull));
            const ByteBuffer mutant =
                fault::apply_mutation(bytes, kind, rng, options);
            auto parsed = load_buffered(mutant);
            auto viewed = view_of(mutant);
            if (mutant == bytes) {
                // Mutation was a no-op (e.g. truncate at full length,
                // a bit flipped twice): the blob is intact and must
                // still round-trip — through both load paths.
                ASSERT_TRUE(parsed.ok()) << parsed.error_message();
                expect_same_index(parsed.value(), real_index());
                ASSERT_TRUE(viewed.ok()) << viewed.error_message();
                expect_same_index(viewed.value(), real_index());
                continue;
            }
            // Any byte-level damage must be detected: the payload
            // checksum leaves no window for a silently wrong index.
            EXPECT_FALSE(parsed.ok())
                << fault::mutation_name(kind) << " seed " << seed
                << " parsed despite " << mutant.size() << " bytes vs "
                << bytes.size();
            EXPECT_FALSE(viewed.ok())
                << fault::mutation_name(kind) << " seed " << seed
                << " opened as a view despite byte damage";
            if (!parsed.ok()) {
                ++rejected;
                EXPECT_FALSE(parsed.error_message().empty());
            }
        }
    }
    // The sweep must have actually exercised the rejection paths.
    EXPECT_GT(rejected, 200);
}

TEST(PersistFault, MultiRoundMutantsNeverCrash)
{
    const ByteBuffer bytes = serialize_index(real_index());
    fault::InjectOptions options;
    options.magic = {'F', 'W', 'I', 'X'};
    for (std::uint64_t seed = 0; seed < 256; ++seed) {
        Rng rng(0xcafe + seed);
        const ByteBuffer mutant = fault::mutate(bytes, rng, options);
        auto parsed = load_buffered(mutant);
        if (parsed.ok()) {
            expect_same_index(parsed.value(), real_index());
        }
        auto viewed = view_of(mutant);
        if (viewed.ok()) {
            expect_same_index(viewed.value(), real_index());
        }
    }
}

TEST(PersistFault, StaleVersionGetsDistinctError)
{
    // A well-formed v1 header must be reported as stale format — the
    // invalidation signal the cache store turns into a miss — not as
    // generic corruption.
    ByteBuffer v1 = {'F', 'W', 'I', 'X'};
    append_u16_le(v1, 1);
    for (int i = 0; i < 64; ++i) {
        v1.push_back(0);
    }
    auto parsed = view_of(v1);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_code(), ErrorCode::StaleFormat);

    ByteBuffer future = {'F', 'W', 'I', 'X'};
    append_u16_le(future, 7);
    auto future_parsed = view_of(future);
    ASSERT_FALSE(future_parsed.ok());
    EXPECT_EQ(future_parsed.error_code(), ErrorCode::StaleFormat);
}

TEST(PersistFault, LayoutHashMismatchIsStale)
{
    ByteBuffer bytes = serialize_index(real_index());
    // Corrupt only the layout-hash field (bytes [6, 14)): same version,
    // different serialized layout — the "struct changed without a
    // version bump" guard.
    bytes[6] ^= 0xff;
    auto parsed = view_of(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error_code(), ErrorCode::StaleFormat);
}

/**
 * Recompute and backpatch the payload checksum so a hand-crafted mutant
 * reaches the field-level parse guards instead of bouncing off the
 * header checksum. Header: magic(4) version(2) layout(8) checksum(8).
 */
void
rechecksum(ByteBuffer &bytes)
{
    constexpr std::size_t kHeaderSize = 22;
    ASSERT_GE(bytes.size(), kHeaderSize);
    const std::uint64_t checksum = content_hash64(std::string_view(
        reinterpret_cast<const char *>(bytes.data()) + kHeaderSize,
        bytes.size() - kHeaderSize));
    std::memcpy(bytes.data() + 14, &checksum, sizeof checksum);
}

// ---- v6 flat-layout navigation -----------------------------------------
//
// The v6 directory is a fixed table of absolute offsets at byte 24
// (sim/persist.cc documents the field order). These helpers read and
// write just enough of it (host-order words) for the targeted mutants
// below to find their field.

std::uint64_t
blob_u64(const ByteBuffer &bytes, std::size_t at)
{
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    return v;
}

void
poke_u64(ByteBuffer &bytes, std::size_t at, std::uint64_t v)
{
    std::memcpy(bytes.data() + at, &v, sizeof v);
}

/** Absolute offset of the packed proc table (directory slot 48). */
std::size_t
proc_table_offset(const ByteBuffer &bytes)
{
    return static_cast<std::size_t>(blob_u64(bytes, 24 + 48));
}

/** Absolute offset of the first posting array (directory slot 72). */
std::size_t
posting_arena_offset(const ByteBuffer &bytes)
{
    return static_cast<std::size_t>(blob_u64(bytes, 24 + 72));
}

/** Byte offset of proc @p i's 96-byte record in the proc table. */
std::size_t
proc_record_offset(const ByteBuffer &bytes, std::size_t i)
{
    constexpr std::size_t kProcRecSize = 96;
    return proc_table_offset(bytes) + i * kProcRecSize;
}

/** Byte offset of proc @p i's u32 flags field (record offset 36). */
std::size_t
proc_flags_offset(const ByteBuffer &bytes, std::size_t i)
{
    return proc_record_offset(bytes, i) + 36;
}

TEST(PersistFault, UnknownProcFlagIsMalformedEvenWithValidChecksum)
{
    // An unknown proc-record flag bit with a freshly backpatched
    // checksum exercises the v6 field guard itself, not the integrity
    // hash — and must be rejected by both consumers (forward-compat:
    // a future flag this build does not understand means the record
    // cannot be trusted).
    ByteBuffer bytes = serialize_index(real_index());
    const std::size_t flags = proc_flags_offset(bytes, 0);
    ASSERT_EQ(bytes[flags] & ~0x1u, 0u);
    bytes[flags] |= 2;  // bit1: unknown to this build
    rechecksum(bytes);
    auto viewed = view_of(bytes);
    ASSERT_FALSE(viewed.ok());
    EXPECT_EQ(viewed.error_code(), ErrorCode::MalformedContainer);
    EXPECT_NE(viewed.error_message().find("flags"), std::string::npos);
    EXPECT_FALSE(load_buffered(bytes).ok());
}

TEST(PersistFault, OutOfRangeProcHashSpanFailsCleanly)
{
    // Aim a procedure's hash span past the end of the hash arena, or
    // off its 8-byte alignment (checksum re-stamped so only the span
    // guard can trip): a silent acceptance would read out of bounds, or
    // misaligned, on the view path.
    const ByteBuffer bytes = serialize_index(real_index());
    const std::size_t hashes_off =
        static_cast<std::size_t>(blob_u64(bytes, 24 + 56));
    const std::size_t hashes_count =
        static_cast<std::size_t>(blob_u64(bytes, 24 + 64));
    const std::size_t rec = proc_record_offset(bytes, 0);
    ASSERT_GT(hashes_count, 0u);
    ASSERT_GT(blob_u64(bytes, rec + 16) & 0xffffffffu, 0u);
    const std::uint64_t evils[] = {
        hashes_off + 8 * hashes_count,  // starts at the arena end
        blob_u64(bytes, rec + 8) + 1,   // misaligned
        hashes_off - 8,                 // before the arena
    };
    for (const std::uint64_t evil : evils) {
        ByteBuffer mutant = bytes;
        poke_u64(mutant, rec + 8, evil);
        rechecksum(mutant);
        auto viewed = view_of(mutant);
        ASSERT_FALSE(viewed.ok()) << evil;
        EXPECT_NE(viewed.error_message().find("hash span"),
                  std::string::npos)
            << viewed.error_message();
        EXPECT_FALSE(load_buffered(mutant).ok()) << evil;
    }
}

TEST(PersistFault, TruncatedPostingArenaFailsCleanly)
{
    // Cut the blob at several points inside the posting arrays
    // (checksum re-stamped so only the bounds guards can trip the
    // parser): every cut must come back as a clean error from both
    // consumers.
    const ByteBuffer bytes = serialize_index(real_index());
    const std::size_t arena = posting_arena_offset(bytes);
    const std::size_t cuts[] = {arena + 1, arena + 8, arena + 256,
                                bytes.size() - 4, bytes.size() - 1};
    for (const std::size_t cut : cuts) {
        ASSERT_LT(cut, bytes.size());
        ByteBuffer mutant(bytes.begin(),
                          bytes.begin() + static_cast<long>(cut));
        rechecksum(mutant);
        auto viewed = view_of(mutant);
        EXPECT_FALSE(viewed.ok()) << "cut " << cut;
        EXPECT_FALSE(viewed.error_message().empty());
        EXPECT_FALSE(load_buffered(mutant).ok()) << "cut " << cut;
    }
}

TEST(PersistFault, CorruptDirectoryOffsetsFailCleanly)
{
    // Re-stamped mutants that aim each directory arena offset out of
    // bounds (or off alignment) exercise the v6 arena guards directly.
    // Slots cover: exe name, names, proc table, hashes and the three
    // posting arrays.
    const ByteBuffer bytes = serialize_index(real_index());
    const std::size_t slots[] = {16, 32, 48, 56, 72, 88, 104};
    for (const std::size_t slot : slots) {
        std::vector<std::uint64_t> evils = {
            static_cast<std::uint64_t>(bytes.size()) + 8,
            ~std::uint64_t{0}};
        if (slot >= 48) {
            // Typed arenas are 4- or 8-aligned; +1 must be rejected.
            // (The two name arenas are byte-aligned: +1 merely shifts
            // the string, which the checksum re-stamp blesses.)
            evils.push_back(blob_u64(bytes, 24 + slot) + 1);
        }
        for (const std::uint64_t evil : evils) {
            ByteBuffer mutant = bytes;
            poke_u64(mutant, 24 + slot, evil);
            rechecksum(mutant);
            if (mutant == bytes) {
                continue;
            }
            EXPECT_FALSE(view_of(mutant).ok())
                << "slot " << slot << " " << evil;
            EXPECT_FALSE(load_buffered(mutant).ok())
                << "slot " << slot << " " << evil;
        }
    }
}

TEST(PersistFault, ViewOpenMatchesDenseReference)
{
    // A stored blob opened as a view must agree with a never-finalized
    // copy of the same procedures: same hashes and summaries, and its
    // posting retrieval must return exactly the candidates the dense
    // reference scan does.
    const ByteBuffer bytes = serialize_index(real_index());
    auto viewed = view_of(bytes);
    ASSERT_TRUE(viewed.ok()) << viewed.error_message();
    const ExecutableIndex &b = viewed.value();
    EXPECT_TRUE(b.search_ready);
    EXPECT_EQ(b.arena, bytes.data());
    ExecutableIndex dense;
    for (const ProcEntry &proc : real_index().procs) {
        ProcEntry owned;
        owned.entry = proc.entry;
        owned.name = proc.name;
        owned.repr = strand::strand_set(live_hashes(proc.repr));
        dense.procs.push_back(std::move(owned));
    }
    ASSERT_FALSE(dense.search_ready);
    ASSERT_EQ(dense.procs.size(), b.procs.size());
    for (std::size_t i = 0; i < dense.procs.size(); ++i) {
        EXPECT_EQ(live_hashes(dense.procs[i].repr),
                  live_hashes(b.procs[i].repr))
            << "proc " << i;
        EXPECT_EQ(dense.procs[i].repr.bucket_bits,
                  b.procs[i].repr.bucket_bits);
        EXPECT_EQ(dense.find_by_entry(dense.procs[i].entry),
                  b.find_by_entry(dense.procs[i].entry));
    }
    for (const ProcEntry &query : real_index().procs) {
        const auto exact_a = shared_candidates(dense, query.repr);
        const auto exact_b = shared_candidates(b, query.repr);
        ASSERT_EQ(exact_a.size(), exact_b.size());
        for (std::size_t c = 0; c < exact_a.size(); ++c) {
            EXPECT_EQ(exact_a[c].index, exact_b[c].index);
            EXPECT_EQ(exact_a[c].sim, exact_b[c].sim);
        }
    }
}

TEST(PersistFault, ClearedReadyBitIsACleanMiss)
{
    // Every writer packs a finalized index, so a blob without the
    // search-ready flag — even one whose checksum is re-stamped — is
    // not a blob this build wrote: both load paths refuse it, and a
    // scan over such an entry counts a miss and re-indexes.
    namespace fs = std::filesystem;
    ByteBuffer bytes = serialize_index(real_index());
    constexpr std::size_t kDirFlags = 24 + 9;
    ASSERT_EQ(bytes[kDirFlags], 1u);
    bytes[kDirFlags] = 0;
    rechecksum(bytes);
    auto viewed = view_of(bytes);
    ASSERT_FALSE(viewed.ok());
    EXPECT_EQ(viewed.error_code(), ErrorCode::MalformedContainer);
    EXPECT_FALSE(load_buffered(bytes).ok());

    const fs::path dir = fs::path(testing::TempDir()) / "firmup-unready";
    fs::remove_all(dir);
    const IndexCacheStore store(dir.string());
    const loader::Executable &exe = real_executable();
    const std::uint64_t key = eval::content_key(exe);
    {
        std::ofstream out(store.path_for(key),
                          std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
    }
    auto mapped = store.load(key, /*use_mmap=*/true);
    ASSERT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.error_code(), ErrorCode::MalformedContainer);
    eval::SearchOptions options;
    options.index_cache_dir = dir.string();
    eval::Driver driver(options);
    const ExecutableIndex *index = driver.index_target(exe);
    ASSERT_NE(index, nullptr);
    expect_same_index(*index, real_index());
    EXPECT_EQ(driver.health().cache_misses, 1u);
    EXPECT_EQ(driver.health().cache_hits, 0u);
    EXPECT_TRUE(store.load(key).ok()) << "entry was not rewritten";
    fs::remove_all(dir);
}

TEST(PersistFault, OlderVersionEntriesAreStaleAndRecountedAsMisses)
{
    // v3 predates the v4 per-procedure sketches, v4 and v5 carry the
    // sketch arena v6 dropped: each must invalidate itself. The version
    // guard fires before any payload interpretation, so none of them
    // can be misread as a v6 record.
    namespace fs = std::filesystem;
    const loader::Executable &exe = real_executable();
    for (const std::uint8_t version : {3, 4, 5}) {
        ByteBuffer old = serialize_index(real_index());
        old[4] = version;
        old[5] = 0;
        auto parsed = view_of(old);
        ASSERT_FALSE(parsed.ok());
        EXPECT_EQ(parsed.error_code(), ErrorCode::StaleFormat);
        EXPECT_NE(parsed.error_message().find(std::to_string(version)),
                  std::string::npos);

        // Through the cache store the stale entry surfaces as a clean
        // StaleFormat error, and a scan counts it as a miss, re-indexes
        // the executable and overwrites the entry with a v6 one.
        const fs::path dir = fs::path(testing::TempDir()) /
                             ("firmup-persist-v" + std::to_string(version));
        fs::remove_all(dir);
        IndexCacheStore store(dir.string());
        const std::uint64_t key = eval::content_key(exe);
        ASSERT_TRUE(store.store(key, real_index()).ok());
        {
            std::ofstream out(store.path_for(key),
                              std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(old.data()),
                      static_cast<std::streamsize>(old.size()));
        }
        auto stale = store.load(key);
        ASSERT_FALSE(stale.ok());
        EXPECT_EQ(stale.error_code(), ErrorCode::StaleFormat);

        eval::SearchOptions options;
        options.index_cache_dir = dir.string();
        eval::Driver driver(options);
        const ExecutableIndex *index = driver.index_target(exe);
        ASSERT_NE(index, nullptr);
        expect_same_index(*index, real_index());
        EXPECT_EQ(driver.health().cache_misses, 1u);
        EXPECT_EQ(driver.health().cache_hits, 0u);
        EXPECT_TRUE(store.load(key).ok()) << "entry was not rewritten";
        fs::remove_all(dir);
    }
}

TEST(PersistFault, GarbageAndEmptyBuffersFailCleanly)
{
    EXPECT_FALSE(view_of(ByteBuffer{}).ok());
    EXPECT_FALSE(load_buffered(ByteBuffer{}).ok());
    ByteBuffer garbage;
    Rng rng(0x6a5ba6e);
    for (int i = 0; i < 4096; ++i) {
        garbage.push_back(static_cast<std::uint8_t>(rng.index(256)));
    }
    EXPECT_FALSE(view_of(garbage).ok());
    EXPECT_FALSE(load_buffered(garbage).ok());
    // Every prefix of a valid blob fails too (no over-read).
    const ByteBuffer bytes = serialize_index(real_index());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(open_index_view(bytes.data(), len, nullptr).ok())
            << "prefix " << len;
    }
}

}  // namespace
}  // namespace firmup::sim
