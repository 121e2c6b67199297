/**
 * @file
 * Microbenchmarks (google-benchmark) for the pipeline's hot stages:
 * compilation, lifting, strand extraction + canonicalization, pairwise
 * Sim, and the full game. These are throughput numbers for the paper's
 * scalability claim (the corpus-scale search must stay static and cheap:
 * the paper's per-CVE wall clock is minutes for ~200k executables).
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "codegen/build.h"
#include "eval/driver.h"
#include "firmware/catalog.h"
#include "game/game.h"
#include "lifter/cfg.h"
#include "sim/persist.h"
#include "strand/canon.h"
#include "support/mmapfile.h"

namespace {

using namespace firmup;

const loader::Executable &
wget_exe()
{
    static const loader::Executable exe = [] {
        const auto &pkg = firmware::package_by_name("wget");
        const auto source =
            firmware::generate_package_source(pkg, "1.15");
        codegen::BuildRequest request;
        request.arch = isa::Arch::Mips32;
        request.profile = compiler::gcc_like_toolchain();
        return codegen::build_executable(source, request);
    }();
    return exe;
}

const lifter::LiftedExecutable &
wget_lifted()
{
    static const lifter::LiftedExecutable lifted =
        lifter::lift_executable(wget_exe()).take();
    return lifted;
}

const sim::ExecutableIndex &
wget_index()
{
    static const sim::ExecutableIndex index =
        sim::index_executable(wget_lifted());
    return index;
}

const sim::ExecutableIndex &
vendor_index()
{
    static const sim::ExecutableIndex index = [] {
        const auto &pkg = firmware::package_by_name("wget");
        const auto source =
            firmware::generate_package_source(pkg, "1.15");
        codegen::BuildRequest request;
        request.arch = isa::Arch::Mips32;
        request.profile = compiler::vendor_toolchains()[1];
        request.strip = true;
        request.keep_exported = false;
        const auto exe = codegen::build_executable(source, request);
        return sim::index_executable(
            lifter::lift_executable(exe).take());
    }();
    return index;
}

void
BM_CompileAndLink(benchmark::State &state)
{
    const auto &pkg = firmware::package_by_name("wget");
    const auto source = firmware::generate_package_source(pkg, "1.15");
    codegen::BuildRequest request;
    request.arch = isa::Arch::Mips32;
    request.profile = compiler::gcc_like_toolchain();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            codegen::build_executable(source, request));
    }
}
BENCHMARK(BM_CompileAndLink)->Unit(benchmark::kMillisecond);

void
BM_LiftExecutable(benchmark::State &state)
{
    const loader::Executable &exe = wget_exe();
    for (auto _ : state) {
        benchmark::DoNotOptimize(lifter::lift_executable(exe));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(wget_lifted().procs.size()));
}
BENCHMARK(BM_LiftExecutable)->Unit(benchmark::kMillisecond);

void
BM_StrandExtraction(benchmark::State &state)
{
    const lifter::LiftedExecutable &lifted = wget_lifted();
    strand::CanonOptions options;
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    for (auto _ : state) {
        for (const auto &[entry, proc] : lifted.procs) {
            benchmark::DoNotOptimize(
                strand::represent_procedure(proc, options));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lifted.procs.size()));
}
BENCHMARK(BM_StrandExtraction)->Unit(benchmark::kMillisecond);

/**
 * The same extraction through the materializing reference path:
 * decompose into copied strand vectors, build the canonical string,
 * hash it. The delta against BM_StrandExtraction is the streaming +
 * arena-reuse win of the cold path.
 */
void
BM_StrandExtractionStringPath(benchmark::State &state)
{
    const lifter::LiftedExecutable &lifted = wget_lifted();
    strand::CanonOptions options;
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    options.stream_hash = false;
    for (auto _ : state) {
        for (const auto &[entry, proc] : lifted.procs) {
            benchmark::DoNotOptimize(
                strand::represent_procedure(proc, options));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lifted.procs.size()));
}
BENCHMARK(BM_StrandExtractionStringPath)->Unit(benchmark::kMillisecond);

/**
 * Streaming extraction against a warm canon memo: after the first
 * iteration every block replays its memoized strand-hash span, so this
 * measures the steady-state cost of indexing repeated content.
 */
void
BM_StrandExtractionMemoWarm(benchmark::State &state)
{
    const lifter::LiftedExecutable &lifted = wget_lifted();
    strand::CanonMemo memo;
    strand::CanonOptions options;
    options.sections.text_lo = lifted.text_addr;
    options.sections.text_hi = lifted.text_end;
    options.sections.data_lo = lifted.data_addr;
    options.sections.data_hi = lifted.data_end;
    options.memo = &memo;
    // Warm the memo so the timed loop is all hits.
    for (const auto &[entry, proc] : lifted.procs) {
        strand::represent_procedure(proc, options);
    }
    for (auto _ : state) {
        for (const auto &[entry, proc] : lifted.procs) {
            benchmark::DoNotOptimize(
                strand::represent_procedure(proc, options));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(lifted.procs.size()));
}
BENCHMARK(BM_StrandExtractionMemoWarm)->Unit(benchmark::kMillisecond);

void
BM_PairwiseSim(benchmark::State &state)
{
    const auto &q = wget_index();
    const auto &t = vendor_index();
    for (auto _ : state) {
        for (const auto &qp : q.procs) {
            for (const auto &tp : t.procs) {
                benchmark::DoNotOptimize(
                    sim::sim_score(qp.repr, tp.repr));
            }
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(q.procs.size() * t.procs.size()));
}
BENCHMARK(BM_PairwiseSim);

void
BM_PairwiseSimMerge(benchmark::State &state)
{
    // The pre-kernel two-pointer/galloping merge over the same |Q|x|T|
    // grid: the baseline the tiered kernel (BM_PairwiseSim) and the
    // query-amortized probe (BM_QueryProbeScore) are measured against.
    const auto &q = wget_index();
    const auto &t = vendor_index();
    for (auto _ : state) {
        for (const auto &qp : q.procs) {
            for (const auto &tp : t.procs) {
                benchmark::DoNotOptimize(
                    sim::sim_score_merge(qp.repr, tp.repr));
            }
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(q.procs.size() * t.procs.size()));
}
BENCHMARK(BM_PairwiseSimMerge);

void
BM_QueryProbeScore(benchmark::State &state)
{
    // The batch hunt's inner loop shape: build the probe once per query
    // procedure, score every target procedure against it. The items/s
    // ratio to BM_PairwiseSimMerge is the query-amortization win the
    // multi_hunt bench-json entry reports as kernel_speedup.
    const auto &q = wget_index();
    const auto &t = vendor_index();
    for (auto _ : state) {
        for (const auto &qp : q.procs) {
            const sim::QueryProbe probe(qp.repr);
            for (const auto &tp : t.procs) {
                benchmark::DoNotOptimize(probe.score(tp.repr));
            }
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(q.procs.size() * t.procs.size()));
}
BENCHMARK(BM_QueryProbeScore);

void
BM_PostingBestMatch(benchmark::State &state)
{
    // The pruned counterpart of BM_PairwiseSim: one posting-list
    // accumulation per query procedure instead of |Q|x|T| pairwise
    // scores. The items/s ratio between the two is the per-query
    // speedup of the inverted index.
    const auto &q = wget_index();
    const auto &t = vendor_index();
    sim::ScoringStats stats;
    for (auto _ : state) {
        for (const auto &qp : q.procs) {
            benchmark::DoNotOptimize(
                sim::shared_candidates(t, qp.repr, &stats));
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(q.procs.size() * t.procs.size()));
    state.counters["pairs_scored_per_query"] = benchmark::Counter(
        static_cast<double>(stats.pairs_scored) /
        static_cast<double>(state.iterations() * q.procs.size()));
    state.counters["elem_ops_per_query"] = benchmark::Counter(
        static_cast<double>(stats.elem_ops) /
        static_cast<double>(state.iterations() * q.procs.size()));
}
BENCHMARK(BM_PostingBestMatch);

void
BM_SerializeIndexV2(benchmark::State &state)
{
    // Write-back cost of the persistent index cache: the FWIX v6 bytes
    // are the finalized arena, so this is one copy. Compare against
    // BM_LiftExecutable + BM_StrandExtraction: the serialize/open pair
    // must be far cheaper than the work it saves for the warm scan.
    sim::ExecutableIndex index = wget_index();
    index.finalize();
    std::int64_t bytes = 0;
    for (auto _ : state) {
        const ByteBuffer blob = sim::serialize_index(index);
        bytes = static_cast<std::int64_t>(blob.size());
        benchmark::DoNotOptimize(blob.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_SerializeIndexV2);

void
BM_MmapOpenV6(benchmark::State &state)
{
    // The warm path: map a persisted FWIX v6 entry, verify the payload
    // checksum and open the index view over the mapped arenas — no
    // posting/hash vectors materialized, only the O(procs) fixed state.
    sim::ExecutableIndex index = wget_index();
    index.finalize();
    const ByteBuffer blob = sim::serialize_index(index);
    const std::string path =
        (std::filesystem::temp_directory_path() / "firmup-bench-v6.fwix")
            .string();
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(blob.data()),
                  static_cast<std::streamsize>(blob.size()));
    }
    for (auto _ : state) {
        auto mapped = MappedFile::map(path);
        if (!mapped.ok()) {
            state.SkipWithError("mmap failed");
            return;
        }
        auto file = std::make_shared<MappedFile>(std::move(mapped).take());
        auto guard = sim::check_container(file->data(), file->size());
        auto view = sim::open_index_view(file->data(), file->size(),
                                         file, /*checked=*/true);
        benchmark::DoNotOptimize(guard.ok() && view.ok());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(blob.size()));
    std::error_code cleanup_ec;
    std::filesystem::remove(path, cleanup_ec);
}
BENCHMARK(BM_MmapOpenV6);

void
BM_GameSearch(benchmark::State &state)
{
    const auto &q = wget_index();
    const auto &t = vendor_index();
    const int qv = q.find_by_name("ftp_retrieve_glob");
    for (auto _ : state) {
        benchmark::DoNotOptimize(game::match_query(q, qv, t));
    }
}
BENCHMARK(BM_GameSearch)->Unit(benchmark::kMillisecond);

void
BM_SearchCorpus(benchmark::State &state)
{
    // Full corpus fan-out at N worker threads (Arg). Thread 1 is the
    // serial reference; the hardware-concurrency row shows how
    // eval::Driver::search_corpus scales on the work-stealing scheduler.
    static const firmware::Corpus corpus = firmware::build_corpus();
    static const std::vector<eval::CorpusTarget> targets =
        eval::corpus_targets(corpus);
    const auto &cve = firmware::cve_database().front();
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        eval::Driver driver;  // fresh caches: times indexing + games
        benchmark::DoNotOptimize(
            driver.search_corpus(cve, targets, threads));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(targets.size()));
}
BENCHMARK(BM_SearchCorpus)
    ->Arg(1)
    ->Arg(static_cast<int>(
        std::max(2u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond);

void
BM_BatchHunt(benchmark::State &state)
{
    // The batched multi-CVE hunt at N worker threads (Arg): every CVE
    // in the database against the whole corpus through one driver, so
    // each target is indexed once and the (query, target) grid rides
    // the work-stealing scheduler. Compare the per-item rate against
    // BM_SearchCorpus x |CVEs| for the amortization win.
    static const firmware::Corpus corpus = firmware::build_corpus();
    static const std::vector<eval::CorpusTarget> targets =
        eval::corpus_targets(corpus);
    const auto &cves = firmware::cve_database();
    const unsigned threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        eval::Driver driver;  // fresh caches: times indexing + games
        benchmark::DoNotOptimize(
            driver.search_corpus_batch(cves, targets, threads));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(targets.size() * cves.size()));
}
BENCHMARK(BM_BatchHunt)
    ->Arg(1)
    ->Arg(static_cast<int>(
        std::max(2u, std::thread::hardware_concurrency())))
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
