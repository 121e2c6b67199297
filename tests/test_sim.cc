/**
 * @file
 * Similarity-module tests: Sim() set semantics (symmetry, bounds, counts
 * ignored), executable indexing, and global-context training.
 */
#include <gtest/gtest.h>

#include "codegen/build.h"
#include "firmware/catalog.h"
#include "index_spans.h"
#include "lifter/cfg.h"
#include "sim/persist.h"
#include "sim/similarity.h"

namespace firmup::sim {
namespace {

strand::ProcedureStrands
strands(std::initializer_list<std::uint64_t> hashes)
{
    return strand::strand_set(std::vector<std::uint64_t>(hashes));
}

TEST(Sim, CountsSharedUniqueStrands)
{
    EXPECT_EQ(sim_score(strands({1, 2, 3}), strands({2, 3, 4})), 2);
    EXPECT_EQ(sim_score(strands({1}), strands({2})), 0);
    EXPECT_EQ(sim_score(strands({}), strands({1, 2})), 0);
}

TEST(Sim, Symmetric)
{
    const auto a = strands({1, 2, 3, 4, 5});
    const auto b = strands({4, 5, 6});
    EXPECT_EQ(sim_score(a, b), sim_score(b, a));
}

TEST(Sim, BoundedByTheSmallerSet)
{
    const auto a = strands({1, 2});
    const auto b = strands({1, 2, 3, 4, 5, 6, 7});
    EXPECT_LE(sim_score(a, b), 2);
    EXPECT_EQ(sim_score(a, a),
              static_cast<int>(a.hashes.size()));
}

TEST(GlobalContext, RareStrandsWeighMore)
{
    ExecutableIndex pool;
    pool.name = "pool";
    auto add = [&pool](std::initializer_list<std::uint64_t> hashes) {
        ProcEntry pe;
        pe.entry = 0x1000 + 0x100 * pool.procs.size();
        pe.repr = strand::strand_set(std::vector<std::uint64_t>(hashes));
        pool.procs.push_back(std::move(pe));
    };
    add({1, 2});
    add({1, 3});
    add({1, 4});
    add({1, 5});
    const GlobalContext context = train_global_context({&pool});
    // Strand 1 appears in every procedure => near-zero weight; strand 5
    // appears once => high weight; unseen strands weigh most.
    EXPECT_LT(context.weight_of(1), context.weight_of(5));
    EXPECT_LE(context.weight_of(5), context.default_weight);
    EXPECT_GT(context.weight_of(1), 0.0);
}

TEST(GlobalContext, WeightedSimOrdersByEvidence)
{
    ExecutableIndex pool;
    for (int i = 0; i < 10; ++i) {
        ProcEntry pe;
        pe.entry = static_cast<std::uint64_t>(0x1000 + i);
        pe.repr.hashes = {7, static_cast<std::uint64_t>(100 + i)};
        pool.procs.push_back(std::move(pe));
    }
    const GlobalContext context = train_global_context({&pool});
    const auto q = strands({7, 100, 101});
    // Sharing two rare strands beats sharing one rare + the common one.
    const double rare2 = weighted_sim(q, strands({100, 101}), context);
    const double common_plus_rare =
        weighted_sim(q, strands({7, 100}), context);
    EXPECT_GT(rare2, common_plus_rare);
}

TEST(GlobalContext, EmptySampleIsSafe)
{
    const GlobalContext context = train_global_context({});
    EXPECT_EQ(context.weight_of(42), context.default_weight);
}

TEST(Index, CoversAllLiftedProcedures)
{
    const auto &pkg = firmware::package_by_name("bftpd");
    const auto source = firmware::generate_package_source(pkg, "2.3");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Ppc32;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(source, request);
    const auto lifted = lifter::lift_executable(exe).take();
    const ExecutableIndex index = index_executable(lifted);
    EXPECT_EQ(index.procs.size(), lifted.procs.size());
    EXPECT_EQ(index.arch, isa::Arch::Ppc32);
    for (const ProcEntry &proc : index.procs) {
        EXPECT_FALSE(proc.repr.hash_empty()) << proc.name;
        EXPECT_GT(proc.repr.stmt_count, 0u) << proc.name;
        EXPECT_EQ(index.find_by_entry(proc.entry),
                  index.find_by_entry(proc.entry));
    }
    // Name lookup agrees with entry lookup.
    const int by_name = index.find_by_name("bftpdutmp_log");
    ASSERT_GE(by_name, 0);
    EXPECT_EQ(index.find_by_entry(
                  index.procs[static_cast<std::size_t>(by_name)].entry),
              by_name);
    EXPECT_EQ(index.find_by_name("no_such_proc"), -1);
    EXPECT_EQ(index.find_by_entry(0xdeadbeef), -1);
}

TEST(Index, DifferentProceduresShareFewStrands)
{
    const auto &pkg = firmware::package_by_name("dropbear");
    const auto source =
        firmware::generate_package_source(pkg, "2012.55");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Arm32;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(source, request);
    const ExecutableIndex index =
        index_executable(lifter::lift_executable(exe).take());
    // Self-similarity must dominate cross-similarity for most pairs.
    int dominated = 0, total = 0;
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        const int self = sim_score(index.procs[i].repr,
                                   index.procs[i].repr);
        for (std::size_t j = 0; j < index.procs.size(); ++j) {
            if (i == j) {
                continue;
            }
            ++total;
            dominated += sim_score(index.procs[i].repr,
                                   index.procs[j].repr) < self
                             ? 1
                             : 0;
        }
    }
    EXPECT_EQ(dominated, total);
}

}  // namespace
}  // namespace firmup::sim

namespace firmup::sim {
namespace {

TEST(Persist, RoundTrip)
{
    const auto &pkg = firmware::package_by_name("libexif");
    const auto source = firmware::generate_package_source(pkg, "0.6.19");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = compiler::gcc_like_toolchain();
    const auto exe = codegen::build_executable(source, request);
    const ExecutableIndex index =
        index_executable(lifter::lift_executable(exe).take());

    const ByteBuffer bytes = serialize_index(index);
    auto parsed = open_index_view(bytes.data(), bytes.size(), nullptr);
    ASSERT_TRUE(parsed.ok()) << parsed.error_message();
    const ExecutableIndex &out = parsed.value();
    EXPECT_EQ(out.name, index.name);
    EXPECT_EQ(out.arch, index.arch);
    ASSERT_EQ(out.procs.size(), index.procs.size());
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        EXPECT_EQ(out.procs[i].entry, index.procs[i].entry);
        EXPECT_EQ(out.procs[i].name, index.procs[i].name);
        EXPECT_EQ(live_hashes(out.procs[i].repr),
                  live_hashes(index.procs[i].repr));
        EXPECT_EQ(out.procs[i].repr.block_count,
                  index.procs[i].repr.block_count);
        EXPECT_EQ(out.procs[i].repr.stmt_count,
                  index.procs[i].repr.stmt_count);
    }
    // Similarity computed from a reloaded index is identical.
    for (std::size_t i = 0; i < index.procs.size(); ++i) {
        EXPECT_EQ(sim_score(out.procs[i].repr, index.procs[i].repr),
                  static_cast<int>(index.procs[i].repr.hash_count()));
    }
}

TEST(Persist, RejectsCorruptInput)
{
    ExecutableIndex index;
    index.name = "x";
    ProcEntry pe;
    pe.entry = 0x400000;
    pe.repr.hashes = {1, 2, 3};
    index.procs.push_back(pe);
    ByteBuffer bytes = serialize_index(index);

    // Bad magic.
    ByteBuffer bad = bytes;
    bad[0] = 'Z';
    EXPECT_FALSE(open_index_view(bad.data(), bad.size(), nullptr).ok());
    // Every truncation point must fail cleanly.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(open_index_view(bytes.data(), len, nullptr).ok())
            << "prefix " << len;
    }
}

}  // namespace
}  // namespace firmup::sim
