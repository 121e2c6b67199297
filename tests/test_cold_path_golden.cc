/**
 * @file
 * Bit-identity of the cold path's two producers: the toolchain that
 * builds the corpus and the CVE queries, and the lifter that recovers
 * procedures from them.
 *
 * Both are rewritten for speed from time to time (liveness as bitset
 * rows, CFG recovery on flat containers), and neither rewrite may move a
 * byte: a corpus executable that compiles differently changes every
 * downstream index, verdict and store key. The digests below were taken
 * from the toolchain and lifter as they stood before those rewrites:
 *  - every executable of the default (seed 2018) corpus: content key
 *    (name, geometry, symbols, text) plus its data bytes;
 *  - the 36 query executables (9 CVEs x 4 ISAs) the driver compiles
 *    with the reference toolchain;
 *  - ir::to_string of every lifted procedure of each distinct corpus
 *    executable.
 * On a mismatch the message prints the digest the code now produces.
 */
#include <gtest/gtest.h>

#include <map>
#include <string_view>
#include <vector>

#include "codegen/build.h"
#include "compiler/toolchain.h"
#include "eval/driver.h"
#include "firmware/catalog.h"
#include "firmware/corpus.h"
#include "lifter/cfg.h"
#include "support/hash.h"

namespace firmup {
namespace {

const firmware::Corpus &
default_corpus()
{
    static const firmware::Corpus corpus = firmware::build_corpus();
    return corpus;
}

std::uint64_t
bytes_digest(const ByteBuffer &bytes)
{
    return fnv1a64(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
}

/** Fold one executable's full identity into @p digest. */
std::uint64_t
fold_executable(std::uint64_t digest, const loader::Executable &exe)
{
    digest = hash_combine(digest, eval::content_key(exe));
    digest = hash_combine(digest, static_cast<std::uint64_t>(exe.arch));
    return hash_combine(digest, bytes_digest(exe.data));
}

TEST(ColdPathGolden, CorpusExecutablesMatchPinnedDigest)
{
    std::uint64_t digest = 0;
    std::size_t count = 0;
    for (const firmware::FirmwareImage &image : default_corpus().images) {
        for (const loader::Executable &exe : image.executables) {
            digest = fold_executable(digest, exe);
            ++count;
        }
    }
    EXPECT_EQ(count, 152u);
    EXPECT_EQ(digest, 0x89b35ddc5a518f8full) << std::hex << "0x" << digest;
}

TEST(ColdPathGolden, QueryExecutablesMatchPinnedDigest)
{
    // The query recipe of eval::Driver::build_query: the latest
    // vulnerable version, built by the reference toolchain.
    std::uint64_t digest = 0;
    std::size_t count = 0;
    for (const firmware::CveRecord &cve : firmware::cve_database()) {
        const lang::PackageSource source =
            firmware::generate_package_source(
                firmware::package_by_name(cve.package),
                eval::latest_vulnerable_version(cve));
        for (isa::Arch arch : isa::kAllArches) {
            codegen::BuildRequest request;
            request.arch = arch;
            request.profile = compiler::gcc_like_toolchain();
            request.exe_name = cve.package + "-query";
            digest = fold_executable(
                digest, codegen::build_executable(source, request));
            ++count;
        }
    }
    EXPECT_EQ(count, 36u);
    EXPECT_EQ(digest, 0x5934457b49bd6cb2ull) << std::hex << "0x" << digest;
}

TEST(ColdPathGolden, LiftedProceduresMatchPinnedDigest)
{
    std::map<std::uint64_t, const loader::Executable *> distinct;
    for (const firmware::FirmwareImage &image : default_corpus().images) {
        for (const loader::Executable &exe : image.executables) {
            distinct.emplace(eval::content_key(exe), &exe);
        }
    }
    std::uint64_t digest = 0;
    std::size_t procs = 0;
    for (const auto &[key, exe] : distinct) {
        auto lifted = lifter::lift_executable(*exe);
        ASSERT_TRUE(lifted.ok()) << exe->name << ": "
                                 << lifted.error_message();
        digest = hash_combine(digest, key);
        digest = hash_combine(
            digest, static_cast<std::uint64_t>(lifted.value().arch));
        for (const auto &[entry, proc] : lifted.value().procs) {
            digest = hash_combine(digest, entry);
            digest = hash_combine(digest, fnv1a64(ir::to_string(proc)));
            ++procs;
        }
    }
    EXPECT_EQ(distinct.size(), 106u);
    EXPECT_EQ(procs, 2040u);
    EXPECT_EQ(digest, 0x66d7d28cd8e6c9a7ull) << std::hex << "0x" << digest;
}

}  // namespace
}  // namespace firmup
