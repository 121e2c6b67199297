/**
 * @file
 * Byte stability of the FWIX v6 arena writer, and agreement of the two
 * store load paths.
 *
 * A persistent store only stays warm across builds while the writer
 * keeps producing the same bytes for the same index: any drift changes
 * every entry's payload and silently cold-starts existing stores. The
 * golden pins a digest of serialize_index() for the first executable of
 * each ISA in the default corpus (digests taken from the writer these
 * tests were introduced against). The blob is host-order, so the pinned
 * bytes are the little-endian ones.
 *
 * IndexCacheStore::load serves an entry as a view over the mapped file,
 * or over a read-in buffer without the map; both must produce the same
 * index — procedures, hash spans and postings — as the built one.
 */
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <map>
#include <string_view>

#include "firmware/corpus.h"
#include "index_spans.h"
#include "lifter/cfg.h"
#include "sim/index_cache.h"
#include "sim/persist.h"
#include "support/hash.h"

namespace firmup::sim {
namespace {

/** One built index per ISA: the first of that ISA in corpus order. */
const std::map<isa::Arch, ExecutableIndex> &
first_index_per_arch()
{
    static const std::map<isa::Arch, ExecutableIndex> indexes = [] {
        std::map<isa::Arch, ExecutableIndex> out;
        const firmware::Corpus corpus = firmware::build_corpus();
        for (const firmware::FirmwareImage &image : corpus.images) {
            for (const loader::Executable &exe : image.executables) {
                if (out.count(exe.arch) != 0) {
                    continue;
                }
                auto lifted = lifter::lift_executable(exe);
                if (lifted.ok() && !lifted.value().procs.empty()) {
                    out.emplace(exe.arch,
                                index_executable(lifted.value()));
                }
            }
        }
        return out;
    }();
    return indexes;
}

std::uint64_t
digest(const ByteBuffer &bytes)
{
    return fnv1a64(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
}

TEST(FwixGolden, SerializedBytesMatchPinnedDigests)
{
    if constexpr (std::endian::native != std::endian::little) {
        GTEST_SKIP() << "digests pin the little-endian arena bytes";
    }
    struct Pin
    {
        isa::Arch arch;
        const char *exe;
        std::size_t size;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {isa::Arch::Mips32, "bftpd", 33096, 0xb9063dfa4fe67ea9ull},
        {isa::Arch::Arm32, "busybox", 72396, 0x777517440a995365ull},
        {isa::Arch::Ppc32, "libexif.so", 24124, 0x2ca8050129bdbb6ull},
        {isa::Arch::X86, "bftpd", 125628, 0xf64b7420ef2096b0ull},
    };
    const auto &indexes = first_index_per_arch();
    ASSERT_EQ(indexes.size(), std::size(pins));
    for (const Pin &pin : pins) {
        const ExecutableIndex &index = indexes.at(pin.arch);
        const ByteBuffer bytes = serialize_index(index);
        EXPECT_EQ(index.name, pin.exe) << isa::arch_name(pin.arch);
        EXPECT_EQ(bytes.size(), pin.size) << isa::arch_name(pin.arch);
        EXPECT_EQ(digest(bytes), pin.digest)
            << isa::arch_name(pin.arch) << ": {isa::Arch::?, \""
            << index.name << "\", " << bytes.size() << ", 0x" << std::hex
            << digest(bytes) << "ull}";
    }
}

void
expect_same_index(const ExecutableIndex &a, const ExecutableIndex &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.arch, b.arch);
    ASSERT_EQ(a.procs.size(), b.procs.size());
    for (std::size_t i = 0; i < a.procs.size(); ++i) {
        const ProcEntry &pa = a.procs[i];
        const ProcEntry &pb = b.procs[i];
        EXPECT_EQ(pa.entry, pb.entry) << i;
        EXPECT_EQ(pa.name, pb.name) << i;
        EXPECT_EQ(live_hashes(pa.repr), live_hashes(pb.repr)) << i;
        EXPECT_EQ(pa.repr.block_count, pb.repr.block_count) << i;
        EXPECT_EQ(pa.repr.stmt_count, pb.repr.stmt_count) << i;
        EXPECT_EQ(pa.repr.summary_built, pb.repr.summary_built) << i;
        EXPECT_EQ(pa.repr.bucket_bits, pb.repr.bucket_bits) << i;
        EXPECT_EQ(pa.repr.word_offsets, pb.repr.word_offsets) << i;
    }
    EXPECT_EQ(a.search_ready, b.search_ready);
    EXPECT_EQ(posting_hashes_of(a), posting_hashes_of(b));
    EXPECT_EQ(posting_offsets_of(a), posting_offsets_of(b));
    EXPECT_EQ(posting_procs_of(a), posting_procs_of(b));
}

TEST(FwixGolden, MappedAndBufferedLoadsAgree)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "firmup-fwix-golden";
    fs::remove_all(dir);
    const IndexCacheStore store(dir.string());
    std::uint64_t key = 0;
    for (const auto &[arch, index] : first_index_per_arch()) {
        ++key;
        ASSERT_TRUE(store.store(key, index).ok()) << isa::arch_name(arch);
        IndexCacheStore::LoadStats mapped_stats;
        auto mapped = store.load(key, /*use_mmap=*/true, &mapped_stats);
        IndexCacheStore::LoadStats read_stats;
        auto read = store.load(key, /*use_mmap=*/false, &read_stats);
        ASSERT_TRUE(mapped.ok()) << mapped.error_message();
        ASSERT_TRUE(read.ok()) << read.error_message();
        EXPECT_TRUE(mapped_stats.mapped);
        EXPECT_FALSE(read_stats.mapped);
        expect_same_index(mapped.value(), read.value());
        expect_same_index(mapped.value(), index);
        // A loaded index is the stored arena itself: re-serializing it
        // yields the bytes that were written.
        EXPECT_EQ(serialize_index(read.value()), serialize_index(index));
    }
    fs::remove_all(dir);
}

}  // namespace
}  // namespace firmup::sim
