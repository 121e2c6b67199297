/**
 * @file
 * firmup's end-to-end benchmark. See README.md for the workloads, the
 * metrics and how to run it; perfbench/run.py builds and invokes this.
 *
 *   firmup_perfbench --workload W --seed N --seconds S --trace 0|1
 *                    [--state-dir DIR] [--commit SHA] [--smoke]
 *
 * The last line of standard output is the result JSON; lines before it
 * starting with '#' carry the environment record and diagnostics.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "fixture.h"
#include "replay.h"
#include "support/hash.h"
#include "support/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/**
 * Driver threads of the timed ops. At 4 threads on a shared 4-vCPU host
 * an op's wall time follows how many vCPUs the neighbours leave free:
 * across ten seeds the wall-time spreads (IQR / median) reached 0.2-0.5
 * while CPU per op stayed within 0.08. At one thread wall time tracks
 * CPU time.
 */
constexpr unsigned kOpThreads = 1;
/** Set-up is a batch job (corpus, store fill, preindex): all cores, up to 4. */
constexpr unsigned kMaxSetupThreads = 4;
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupReps = 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    int trace = -1;
    std::string state_dir = ".bench_build";
    std::string commit = "unknown";
    bool smoke = false;
};

bool
parse_args(int argc, char **argv, Args &args)
{
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool has_value = i + 1 < argc;
        if (flag == "--smoke") {
            args.smoke = true;
        } else if (!has_value) {
            return false;
        } else if (flag == "--workload") {
            args.workload = argv[++i];
        } else if (flag == "--seed") {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::atoi(argv[++i]);
        } else if (flag == "--trace") {
            args.trace = std::atoi(argv[++i]);
        } else if (flag == "--state-dir") {
            args.state_dir = argv[++i];
        } else if (flag == "--commit") {
            args.commit = argv[++i];
        } else {
            return false;
        }
    }
    return !args.workload.empty() && have_seed && args.seconds > 0 &&
           (args.trace == 0 || args.trace == 1);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The highest whole percentile with at least ten samples above it
 * (nearest rank), or the median when there are too few samples.
 */
struct Tail
{
    int percentile = 50;
    double value = 0.0;
};

Tail
tail_of(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    Tail tail{50, median(v)};
    for (int p = 99; p > 50; --p) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
        if (rank >= 1 && n - rank >= 10) {
            tail = {p, v[rank - 1]};
            break;
        }
    }
    return tail;
}

/** Seeded Fisher-Yates (std::shuffle's algorithm is not portable). */
std::vector<std::size_t>
permutation(std::size_t n, std::mt19937_64 &rng)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) {
        order[i] = i;
    }
    for (std::size_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng() % i]);
    }
    return order;
}

void
set_driver_threads(unsigned threads)
{
    // resolve_worker_threads(0) — the per-executable canon fan-out of an
    // on-demand index — reads this, so every layer runs at the op's
    // thread count.
    setenv("FIRMUP_THREADS", std::to_string(threads).c_str(), 1);
}

/** Removes the run's temporary stores on every exit path. */
class WorkDir
{
  public:
    explicit WorkDir(std::string path) : path_(std::move(path))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ignored;
        fs::remove_all(path_, ignored);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** fnv1a64 of this program's own executable: the reference's build id. */
std::uint64_t
build_id()
{
    std::ifstream in("/proc/self/exe", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return firmup::fnv1a64(bytes);
}

/**
 * Path of this build's reference verdicts on @p corpus (see
 * write_reference), computing them first when they are missing. They
 * are computed once per build, in a child process, so that no run pays
 * their time or peak memory and every run compares against the same
 * verdicts whatever ran before it.
 */
std::string
ensure_reference(const Args &args, const firmware::CorpusOptions &corpus,
                 unsigned threads)
{
    char name[128];
    std::snprintf(name, sizeof name, "/reference-%d-%d-%016llx.tsv",
                  corpus.num_devices, corpus.scale,
                  static_cast<unsigned long long>(build_id()));
    const std::string path = args.state_dir + name;
    if (fs::exists(path)) {
        return path;
    }
    std::fflush(nullptr);
    const pid_t child = fork();
    if (child < 0) {
        throw std::runtime_error("fork failed");
    }
    if (child == 0) {
        int code = 0;
        try {
            write_reference(make_fixture(corpus), threads, path);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "firmup_perfbench: %s\n", e.what());
            code = 1;
        }
        std::fflush(nullptr);
        _exit(code);
    }
    int status = 0;
    while (waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("the reference hunt failed");
    }
    return path;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
json_number(double v)
{
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
json_array(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        out += (i == 0 ? "" : ", ") + json_number(values[i]);
    }
    return out + "]";
}

std::string
metrics_json(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
               "\": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}";
}

/** Failure bookkeeping for one run. */
struct Failures
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;
    std::vector<std::string> reasons;

    void
    op(const std::string &why)
    {
        ++attempted;
        if (!why.empty()) {
            ++failed;
            note(why);
        }
    }

    void
    note(const std::string &why)
    {
        correct = false;
        if (reasons.size() < 10) {
            reasons.push_back(why);
        }
    }
};

/** Run one op, turning an exception into a failure reason. */
template <class F>
std::string
guarded(F &&fn)
{
    try {
        return fn();
    } catch (const std::exception &e) {
        return std::string("threw: ") + e.what();
    }
}

/**
 * The traced run's per-layer metrics. Replays @p first_round at one
 * thread, first untraced through the Driver, then traced; see README.md.
 */
std::vector<Metric>
traced_metrics(const Args &args, Workload &workload,
               const std::vector<std::size_t> &first_round,
               unsigned threads, double cores_used, Failures &failures)
{
    // Untraced one-thread replay of the first round: the baseline
    // the traced replay's overhead is measured against.
    set_driver_threads(1);
    double untraced_1t = 0.0;
    workload.begin_round();
    for (std::size_t item : first_round) {
        const auto start = Clock::now();
        failures.op(guarded([&] { return workload.op(item, 1); }));
        untraced_1t += seconds_since(start);
    }
    if (const std::string why = workload.end_round(); !why.empty()) {
        failures.note(why);
    }

    workload.prepare_replay();
    auto &registry = firmup::trace::MetricsRegistry::global();
    registry.reset();
    firmup::trace::set_level(firmup::trace::Level::Metrics);
    Tracer tracer;
    ReplayCounts counts;
    double retrieval = 0.0;
    workload.begin_round();
    for (std::size_t i = 0; i < first_round.size(); ++i) {
        tracer.begin_op(static_cast<int>(i));
        const std::string why = guarded(
            [&] { return workload.replay(first_round[i], tracer, counts); });
        tracer.end_op();
        failures.op(why);
        retrieval += workload.retrieval_seconds();
    }
    const firmup::trace::Snapshot counters = registry.snapshot();
    firmup::trace::set_level(firmup::trace::Level::Off);
    set_driver_threads(threads);
    if (const std::string why = workload.replay_shape(counters, counts);
        !why.empty()) {
        failures.note(why);
    }
    tracer.write_chrome_json(args.state_dir + "/runs/" + args.workload +
                             "-seed" + std::to_string(args.seed) +
                             ".trace.json");

    const auto totals = tracer.totals();
    const auto layers = tracer.layer_self_seconds();
    const double ops = static_cast<double>(tracer.ops());
    const auto per_op = [&](const char *span) {
        const auto it = totals.find(span);
        return it == totals.end() ? 0.0 : it->second.total_s / ops;
    };
    const auto layer = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second / ops;
    };
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const auto counter = [&](const char *name) {
        return static_cast<double>(counters.counter(name)) / ops;
    };
    const double traced_op = per_op("op");
    const double unattributed = totals.at("op").self_s / ops;
    const double memo_hits = counter("canon.memo_hits");
    return {
        {"firmware.unpack_s", per_op("firmware.unpack"), "s"},
        {"firmware.unpack_bytes", counts.unpack_bytes / ops, "bytes"},
        {"eval.content_key_s",
         ratio(per_op("eval.content_key"), counts.keyed_targets / ops), "s"},
        {"eval.keyed_targets", counts.keyed_targets / ops, "count"},
        {"lifter.lift_s", per_op("lifter.lift"), "s"},
        {"lifter.executables", counts.lifts / ops, "count"},
        {"lifter.blocks", counts.blocks / ops, "count"},
        {"sim.index_s", per_op("sim.index"), "s"},
        {"strand.memo_hit_ratio",
         ratio(memo_hits, memo_hits + counter("canon.memo_misses")),
         "ratio"},
        {"strand.sketch_s", per_op("strand.sketch"), "s"},
        {"sim.store_write_s", per_op("sim.store_write"), "s"},
        {"sim.store_write_bytes", counts.write_bytes / ops, "bytes"},
        {"sim.store_load_s", per_op("sim.store_load"), "s"},
        {"sim.store_open_s", per_op("sim.store_open"), "s"},
        {"sim.store_checksum_s", per_op("sim.store_checksum"), "s"},
        {"sim.store_parse_s", per_op("sim.store_parse"), "s"},
        {"sim.store_hit_ratio", ratio(counts.load_hits, counts.loads),
         "ratio"},
        {"eval.query_build_s", per_op("eval.query_build"), "s"},
        {"eval.query_recipe_hits", counts.recipe_hits / ops, "count"},
        {"sim.retrieval_s", retrieval / ops, "s"},
        {"sim.probes", counts.probes / ops, "count"},
        {"sim.candidates", counts.candidates / ops, "count"},
        {"game.match_s", per_op("game.match"), "s"},
        {"eval.confirm_s", per_op("eval.confirm"), "s"},
        {"game.games", counter("game.games"), "count"},
        {"game.steps", counter("game.steps"), "count"},
        {"game.rival_turns", counter("game.rival_turns"), "count"},
        {"game.pairs_scored", counter("game.pairs_scored"), "count"},
        {"game.scoring_elem_ops", counter("game.scoring_elem_ops"),
         "count"},
        {"sim.index_bytes", counts.index_bytes / ops, "bytes"},
        {"eval.cores_used", cores_used, "cores"},
        {"eval.unattributed_s", unattributed, "s"},
        {"eval.unattributed_share", ratio(unattributed, traced_op),
         "ratio"},
        {"eval.op_traced_1t_s", traced_op, "s"},
        {"eval.op_untraced_1t_s", untraced_1t / ops, "s"},
        {"eval.trace_overhead",
         ratio(traced_op * ops - untraced_1t, untraced_1t), "ratio"},
        {"firmware.self_s", layer("firmware"), "s"},
        {"lifter.self_s", layer("lifter"), "s"},
        {"strand.self_s", layer("strand"), "s"},
        {"sim.self_s", layer("sim"), "s"},
        {"game.self_s", layer("game"), "s"},
        {"eval.self_s", layer("eval"), "s"},
    };
}

int
run(const Args &args)
{
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    const unsigned nproc = online > 0 ? static_cast<unsigned>(online) : 1;
    const unsigned setup_threads = std::min(kMaxSetupThreads, nproc);
    const unsigned threads = kOpThreads;
    set_driver_threads(setup_threads);
    firmup::trace::set_level(firmup::trace::Level::Off);

    firmware::CorpusOptions corpus;  // seed 2018: Table 2's corpus
    if (args.smoke) {
        corpus.num_devices = 4;
    }
    fs::create_directories(args.state_dir + "/runs");
    VerdictBook book(
        read_reference(ensure_reference(args, corpus, setup_threads)));
    const WorkDir work(args.state_dir + "/work/" + args.workload + "-" +
                       std::to_string(getpid()));
    Failures failures;

    // Set-up runs several times and each set-up is followed by its share
    // of the timed loop, so the measurement is spread over the whole run
    // rather than one stretch of a shared host's speed. setup_s is the
    // median set-up; peak RSS covers every set-up.
    //
    // The timed loop runs whole rounds (a pass over every blob, or every
    // CVE once) in seeded order, so every run does the same mix of ops
    // whatever the seed. The number of rounds is fixed: the whole rounds
    // that fit its share of --seconds at the workload's reference round
    // cost, and at least the workload's minimum. On a much slower host a
    // share stops after three times its planned seconds.
    const int reps = args.trace == 1 || args.smoke ? 1 : kSetupReps;
    std::vector<double> setup_times;
    std::unique_ptr<Fixture> fixture;
    std::unique_ptr<Workload> workload;
    std::mt19937_64 rng(args.seed);
    std::vector<double> latencies;
    std::vector<std::size_t> first_round;
    double op_cpu = 0.0;
    double loop_wall = 0.0;
    for (int r = 0; r < reps; ++r) {
        workload.reset();
        fixture.reset();
        set_driver_threads(setup_threads);
        const auto setup_start = Clock::now();
        fixture = std::make_unique<Fixture>(make_fixture(corpus));
        workload = make_workload(args.workload, *fixture, book, work.path(),
                                 setup_threads);
        setup_times.push_back(seconds_since(setup_start));
        set_driver_threads(threads);

        const double share = static_cast<double>(args.seconds) / reps;
        const long rounds =
            std::max(workload->min_rounds(),
                     static_cast<long>(share / workload->round_seconds()));
        const double budget =
            3 * std::max(share, static_cast<double>(rounds) *
                                    workload->round_seconds());
        const auto loop_start = Clock::now();
        for (long k = 0; k < rounds && seconds_since(loop_start) < budget;
             ++k) {
            const std::vector<std::size_t> order =
                permutation(workload->round_size(), rng);
            if (first_round.empty()) {
                first_round = order;
            }
            workload->begin_round();
            for (std::size_t item : order) {
                const double cpu0 = process_cpu_seconds();
                const auto start = Clock::now();
                const std::string why =
                    guarded([&] { return workload->op(item, threads); });
                latencies.push_back(seconds_since(start));
                op_cpu += process_cpu_seconds() - cpu0;
                failures.op(why);
            }
            if (const std::string why =
                    guarded([&] { return workload->end_round(); });
                !why.empty()) {
                failures.note(why);
            }
        }
        loop_wall += seconds_since(loop_start);
    }

    double op_wall = 0.0;
    for (double l : latencies) {
        op_wall += l;
    }
    const double cores_used = op_cpu / op_wall;
    if (cores_used > static_cast<double>(threads) + 0.05) {
        failures.note("cores_used " + json_number(cores_used) +
                      " exceeds the thread count");
    }

    std::vector<Metric> metrics;
    std::string notes;
    if (args.trace == 0) {
        const Tail tail = tail_of(latencies);
        const Tally tally = book.tally(*fixture);
        const double n = static_cast<double>(latencies.size());
        metrics = {
            {"setup_s", median(setup_times), "s"},
            {"ops_per_s", n / loop_wall, "1/s"},
            {"op_p50_s", median(latencies), "s"},
            {"op_tail_s", tail.value, "s"},
            {"cpu_per_op_s", op_cpu / n, "s"},
            {"peak_rss_mb", peak_rss_mb(), "MiB"},
            {"precision", tally.precision(), "ratio"},
            {"recall", tally.recall(), "ratio"},
        };
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "# op_tail_s is p%d of %zu ops; table2 confirmed=%d "
                      "benign=%d fps=%d missed=%d; cores_used=%.3f\n",
                      tail.percentile, latencies.size(), tally.confirmed,
                      tally.benign, tally.fps, tally.missed, cores_used);
        notes += buf;
    } else {
        metrics = traced_metrics(args, *workload, first_round, threads,
                                 cores_used, failures);
    }
    if (args.trace == 1) {
        metrics.push_back({"eval.failed_ops",
                           static_cast<double>(failures.failed) /
                               static_cast<double>(failures.attempted),
                           "ratio"});
    }

    char env[1024];
    std::snprintf(
        env, sizeof env,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
        "\"trace\": %d, \"nproc\": %u, \"threads\": %u, "
        "\"setup_threads\": %u, \"build_type\": \"%s\", "
        "\"compiler\": \"gcc %s\", "
        "\"commit\": \"%s\", \"corpus_seed\": %llu, \"corpus_scale\": %d, "
        "\"corpus_devices\": %d, \"blobs\": %zu, \"executables\": %zu, "
        "\"distinct\": %zu, \"setup_reps\": %d, \"ops\": %zu}",
        args.workload.c_str(), static_cast<unsigned long long>(args.seed),
        args.seconds, args.trace, nproc, threads, setup_threads,
        PERFBENCH_BUILD_TYPE, __VERSION__, args.commit.c_str(),
        static_cast<unsigned long long>(corpus.seed), corpus.scale,
        corpus.num_devices, fixture->blobs.size(), fixture->executables,
        fixture->distinct, reps, latencies.size());
    const std::string result =
        std::string("{\"correct\": ") +
        (failures.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(failures.attempted) +
        ", \"failed\": " + std::to_string(failures.failed) +
        ", \"metrics\": " + metrics_json(metrics) + "}";
    std::ofstream(args.state_dir + "/runs/" + args.workload + "-seed" +
                  std::to_string(args.seed) + "-trace" +
                  std::to_string(args.trace) + ".json")
        << "{\"env\": " << env << ", \"result\": " << result
        << ", \"op_seconds\": " << json_array(latencies) << "}\n";

    if (book.borrowed() != 0) {
        // Not a failure: see VerdictBook.
        notes += "# known defect: " + std::to_string(book.borrowed()) +
                 " verdict(s) came from the index of another copy with "
                 "the same content key at another load address "
                 "(eval::content_key ignores load addresses)\n";
    }
    std::printf("# env %s\n%s", env, notes.c_str());
    for (const std::string &why : failures.reasons) {
        std::printf("# failure: %s\n", why.c_str());
    }
    std::printf("%s\n", result.c_str());
    return 0;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Args args;
    if (!perfbench::parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: firmup_perfbench --workload "
                     "ingest_cold|hunt_warm|hunt_hot --seed N --seconds S "
                     "--trace 0|1 [--state-dir DIR] [--commit SHA] "
                     "[--smoke]\n");
        return 2;
    }
    try {
        return perfbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "firmup_perfbench: %s\n", e.what());
        return 1;
    }
}
