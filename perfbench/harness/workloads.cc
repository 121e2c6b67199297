#include "workloads.h"

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "firmware/image.h"
#include "lifter/cfg.h"
#include "sim/index_cache.h"
#include "sim/similarity.h"
#include "strand/memo.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace sim = firmup::sim;
using firmup::isa::Arch;
using QuerySet = std::map<Arch, eval::Query>;

/** Fresh, empty directory at @p dir. */
void
reset_dir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

/** Content key of each of @p targets. */
std::vector<std::uint64_t>
keys_of(const std::vector<eval::CorpusTarget> &targets)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(targets.size());
    for (const eval::CorpusTarget &t : targets) {
        keys.push_back(eval::content_key(*t.exe));
    }
    return keys;
}

/** Global target ordinal of each of @p targets (see Fixture). */
std::vector<std::size_t>
ordinals_of(const Fixture &fixture,
            const std::vector<firmware::FirmwareImage> &images,
            const std::vector<eval::CorpusTarget> &targets)
{
    std::vector<std::size_t> ordinals;
    ordinals.reserve(targets.size());
    for (const eval::CorpusTarget &t : targets) {
        const auto image = static_cast<std::size_t>(t.image_index);
        const firmup::loader::Executable *first =
            images[image].executables.data();
        ordinals.push_back(fixture.first_target[image] +
                           static_cast<std::size_t>(t.exe - first));
    }
    return ordinals;
}

/** Common state: fixture, verdicts, store and the replay's queries. */
class Base : public Workload
{
  protected:
    Base(const Fixture &fixture, VerdictBook &book,
         const std::string &work_dir)
        : fixture_(fixture), book_(book), store_dir_(work_dir + "/store")
    {
        reset_dir(store_dir_);
    }

    /**
     * Check and record one CVE's outcome row; @p keys, @p ordinals and
     * @p firsts (the copy that arrived first with each target's content
     * key, see VerdictBook) run parallel to @p row.
     */
    std::string
    record(std::size_t cve, const std::vector<eval::CorpusOutcome> &row,
           const std::vector<std::uint64_t> &keys,
           const std::vector<std::size_t> &ordinals,
           const std::vector<std::uint64_t> &firsts)
    {
        std::string why;
        for (std::size_t t = 0; t < row.size(); ++t) {
            const eval::CorpusOutcome &co = row[t];
            if (!co.indexed || co.outcome.unresolved ||
                co.outcome.cancelled) {
                why = "unscanned or unresolved target " +
                      co.target.exe->name;
            }
            if (const std::string bad = book_.record(
                    cve, ordinals[t], keys[t],
                    fixture_.target_copies[ordinals[t]], firsts[t],
                    verdict_of(co));
                !bad.empty()) {
                why = cves()[cve].cve_id + " on " + co.target.exe->name +
                      ": " + bad;
            }
        }
        return why;
    }

    /** The first copy in corpus order of each target at @p ordinals. */
    std::vector<std::uint64_t>
    corpus_firsts(const std::vector<std::size_t> &ordinals) const
    {
        std::vector<std::uint64_t> firsts;
        firsts.reserve(ordinals.size());
        for (std::size_t t : ordinals) {
            firsts.push_back(fixture_.corpus_first_copy[t]);
        }
        return firsts;
    }

    /** Full-build queries for every (CVE, ISA): the replay's games. */
    void
    build_replay_queries()
    {
        eval::Driver query_driver;
        replay_queries_.assign(cves().size(), {});
        for (std::size_t q = 0; q < cves().size(); ++q) {
            for (Arch arch : firmup::isa::kAllArches) {
                replay_queries_[q].emplace(
                    arch, query_driver.build_query(cves()[q], arch));
            }
        }
    }

    /** Content key of each of @p targets, one traced call per target. */
    static std::vector<std::uint64_t>
    traced_keys(const std::vector<eval::CorpusTarget> &targets,
                Tracer &tracer, ReplayCounts &counts)
    {
        std::vector<std::uint64_t> keys;
        keys.reserve(targets.size());
        for (const eval::CorpusTarget &t : targets) {
            keys.push_back(tracer.span("eval.content_key", [&] {
                return eval::content_key(*t.exe);
            }));
        }
        counts.keyed_targets += static_cast<double>(targets.size());
        return keys;
    }

    /**
     * The driver's tier walk for one distinct target, traced: store
     * load, and on a miss lift + index + store write. nullptr when the
     * executable does not lift (the driver would quarantine it).
     */
    std::shared_ptr<const sim::ExecutableIndex>
    traced_resolve(const sim::IndexCacheStore &store,
                   const firmup::loader::Executable &exe, std::uint64_t key,
                   const firmup::strand::CanonOptions &canon, Tracer &tracer,
                   ReplayCounts &counts) const
    {
        auto loaded = tracer.span("sim.store_load", [&] {
            sim::IndexCacheStore::LoadStats stats;
            auto result = store.load(key, /*use_mmap=*/true, &stats);
            tracer.child("sim.store_open", stats.open_seconds);
            tracer.child("sim.store_checksum", stats.checksum_seconds);
            tracer.child("sim.store_parse", stats.parse_seconds);
            return result;
        });
        ++counts.loads;
        if (loaded.ok()) {
            ++counts.load_hits;
            return std::make_shared<const sim::ExecutableIndex>(
                std::move(loaded).take());
        }
        auto lifted = tracer.span("lifter.lift", [&] {
            return firmup::lifter::lift_executable(exe);
        });
        ++counts.lifts;
        if (!lifted.ok() ||
            (lifted.value().procs.empty() && !exe.text.empty())) {
            return nullptr;
        }
        for (const auto &[entry, proc] : lifted.value().procs) {
            counts.blocks += static_cast<double>(proc.blocks.size());
        }
        auto index = tracer.span("sim.index", [&] {
            const std::uint64_t sketch_before =
                sim::retrieval_counters().sketch_micros;
            auto built = std::make_shared<const sim::ExecutableIndex>(
                sim::index_executable(lifted.value(), canon));
            tracer.child("strand.sketch",
                         static_cast<double>(
                             sim::retrieval_counters().sketch_micros -
                             sketch_before) *
                             1e-6);
            return built;
        });
        tracer.span("sim.store_write", [&] {
            if (auto written = store.store(key, *index); written.ok()) {
                counts.write_bytes += static_cast<double>(written.value());
            }
        });
        return index;
    }

    /**
     * Resolve every target the way a fresh store-backed Driver does:
     * each distinct content key once (traced_resolve), sharing one
     * canon memo across the op. One index per target, null when it
     * would be quarantined. The indexes stay alive until the next op,
     * for retrieval_seconds().
     */
    std::vector<std::shared_ptr<const sim::ExecutableIndex>>
    traced_tiers(const std::vector<eval::CorpusTarget> &targets,
                 const std::vector<std::uint64_t> &keys, Tracer &tracer,
                 ReplayCounts &counts)
    {
        firmup::strand::CanonMemo memo;
        firmup::strand::CanonOptions canon;
        canon.memo = &memo;
        const sim::IndexCacheStore store(store_dir_);
        std::map<std::uint64_t, std::shared_ptr<const sim::ExecutableIndex>>
            resolved;
        std::vector<std::shared_ptr<const sim::ExecutableIndex>> indexes;
        for (std::size_t t = 0; t < targets.size(); ++t) {
            auto it = resolved.find(keys[t]);
            if (it == resolved.end()) {
                it = resolved
                         .emplace(keys[t],
                                  traced_resolve(store, *targets[t].exe,
                                                 keys[t], canon, tracer,
                                                 counts))
                         .first;
                if (it->second != nullptr) {
                    counts.index_bytes +=
                        static_cast<double>(it->second->memory_bytes());
                }
            }
            indexes.push_back(it->second);
        }
        pinned_ = indexes;
        return indexes;
    }

    static std::vector<const sim::ExecutableIndex *>
    raw(const std::vector<std::shared_ptr<const sim::ExecutableIndex>>
            &indexes)
    {
        std::vector<const sim::ExecutableIndex *> out;
        for (const auto &index : indexes) {
            out.push_back(index.get());
        }
        return out;
    }

    /**
     * Query-build probe: hunt @p hunt with a fresh store-backed Driver
     * over one already-stored target per ISA of @p targets, so nearly
     * all of its time is the driver's query build (recipe lane).
     */
    void
    traced_query_probe(
        const std::vector<firmware::CveRecord> &hunt,
        const std::vector<eval::CorpusTarget> &targets,
        const std::vector<std::shared_ptr<const sim::ExecutableIndex>>
            &indexes,
        Tracer &tracer, ReplayCounts &counts) const
    {
        std::vector<eval::CorpusTarget> probe;
        std::set<Arch> seen;
        for (std::size_t t = 0; t < targets.size(); ++t) {
            if (indexes[t] != nullptr && seen.insert(indexes[t]->arch).second) {
                probe.push_back(targets[t]);
            }
        }
        tracer.span("eval.query_build", [&] {
            eval::SearchOptions options;
            options.index_cache_dir = store_dir_;
            eval::Driver driver(options);
            driver.search_corpus_batch(hunt, probe, 1);
            counts.recipe_hits +=
                static_cast<double>(driver.health().query_cache_hits);
        });
        ++counts.query_probes;
    }

    /**
     * The games of CVEs @p hunt over @p targets, target-major like the
     * driver's grid: search_outcome split by its own game/confirm
     * seconds, with the game's own retrieval work read from the
     * retrieval counters. Every verdict is checked against the untraced
     * ops'.
     */
    std::string
    traced_games(const std::vector<std::size_t> &hunt,
                 const std::vector<const QuerySet *> &queries,
                 const std::vector<eval::CorpusTarget> &targets,
                 const std::vector<std::uint64_t> &keys,
                 const std::vector<const sim::ExecutableIndex *> &indexes,
                 Tracer &tracer, ReplayCounts &counts)
    {
        std::string why;
        games_.clear();
        for (std::size_t t = 0; t < targets.size(); ++t) {
            for (std::size_t i = 0; i < hunt.size(); ++i) {
                eval::CorpusOutcome co;
                co.target = targets[t];
                const sim::ExecutableIndex *index = indexes[t];
                const auto qit = index == nullptr
                                     ? queries[i]->end()
                                     : queries[i]->find(index->arch);
                if (qit != queries[i]->end()) {
                    const eval::Query &query = qit->second;
                    const sim::RetrievalCounters before =
                        sim::retrieval_counters();
                    co.indexed = true;
                    co.outcome = tracer.span("eval.search_outcome", [&] {
                        eval::SearchOutcome o =
                            replay_driver_.search_outcome(query, *index);
                        tracer.child("game.match", o.game_seconds);
                        tracer.child("eval.confirm", o.confirm_seconds);
                        return o;
                    });
                    const sim::RetrievalCounters after =
                        sim::retrieval_counters();
                    counts.probes += static_cast<double>(
                        after.probes_exact - before.probes_exact);
                    counts.candidates += static_cast<double>(
                        after.candidates_exact - before.candidates_exact);
                    games_.emplace_back(&query, index);
                }
                const Verdict *expected = book_.find(hunt[i], keys[t]);
                if (expected == nullptr || !(*expected == verdict_of(co))) {
                    why = "traced " + cves()[hunt[i]].cve_id + " on " +
                          targets[t].exe->name + ": " +
                          verdict_of(co).describe() +
                          " differs from the untraced run's " +
                          (expected ? expected->describe() : "(none)");
                }
            }
        }
        return why;
    }

  public:
    double
    retrieval_seconds() const override
    {
        const auto start = Clock::now();
        for (const auto &[query, index] : games_) {
            static_cast<void>(sim::shared_candidates(
                *index,
                query->index.procs[static_cast<std::size_t>(query->qv)].repr));
        }
        return seconds_since(start);
    }

  protected:
    const Fixture &fixture_;
    VerdictBook &book_;
    const std::string store_dir_;
    eval::Driver replay_driver_;
    std::vector<QuerySet> replay_queries_;  ///< by CVE index
    /** The last replayed op's indexes and (query, target) games. */
    std::vector<std::shared_ptr<const sim::ExecutableIndex>> pinned_;
    std::vector<std::pair<const eval::Query *, const sim::ExecutableIndex *>>
        games_;
};

/**
 * New images arrive one at a time: each op unpacks one blob and hunts
 * the whole catalog over its executables with a fresh Driver on a store
 * that starts each pass empty.
 */
class IngestCold final : public Base
{
  public:
    IngestCold(const Fixture &fixture, VerdictBook &book,
               const std::string &work_dir)
        : Base(fixture, book, work_dir)
    {
    }

    std::size_t round_size() const override { return fixture_.blobs.size(); }
    double round_seconds() const override { return 9.0; }
    /**
     * An op's cost depends on which blobs arrived before it in the pass
     * (whether its executables are lifted or loaded, whether it builds
     * its ISA's queries), so one pass per set-up left op_p50_s and
     * op_tail_s spread by the seed's order. Two passes per set-up also
     * put op_tail_s among the cold query-build ops (four per pass).
     */
    long min_rounds() const override { return 2; }

    void
    begin_round() override
    {
        reset_dir(store_dir_);
        first_copy_.clear();
    }

    std::string
    end_round() override
    {
        // Every distinct executable of the corpus must now be stored.
        const sim::IndexCacheStore store(store_dir_);
        std::set<std::uint64_t> keys;
        for (const firmup::ByteBuffer &blob : fixture_.blobs) {
            for (const auto &exe : unpack_blob(blob).executables) {
                keys.insert(eval::content_key(exe));
            }
        }
        for (std::uint64_t key : keys) {
            if (!fs::exists(store.path_for(key))) {
                return "store lacks a distinct executable after the pass";
            }
        }
        return keys.size() == fixture_.distinct
                   ? std::string()
                   : "pass saw a different executable set";
    }

    std::string
    op(std::size_t blob, unsigned threads) override
    {
        const std::vector<firmware::FirmwareImage> images =
            one_image(blob);
        const std::vector<eval::CorpusTarget> targets = targets_of(images);
        eval::SearchOptions options;
        options.index_cache_dir = store_dir_;
        eval::Driver driver(options);
        const auto grid =
            driver.search_corpus_batch(cves(), targets, threads);
        std::string why = health_failure(driver.health());
        const auto keys = keys_of(targets);
        const auto ordinals = ordinals_of_blob(blob, targets.size());
        // The store keeps the copy of each content key that arrived first
        // this pass; later blobs are answered from its index.
        std::vector<std::uint64_t> firsts;
        for (std::size_t t = 0; t < targets.size(); ++t) {
            firsts.push_back(
                first_copy_
                    .try_emplace(keys[t], fixture_.target_copies[ordinals[t]])
                    .first->second);
        }
        for (std::size_t q = 0; q < grid.size(); ++q) {
            if (auto bad = record(q, grid[q], keys, ordinals, firsts);
                !bad.empty()) {
                why = bad;
            }
        }
        return why;
    }

    void prepare_replay() override { build_replay_queries(); }

    std::string
    replay(std::size_t blob, Tracer &tracer, ReplayCounts &counts) override
    {
        std::vector<firmware::FirmwareImage> images;
        images.push_back(tracer.span("firmware.unpack", [&] {
            return unpack_blob(fixture_.blobs[blob]);
        }));
        counts.unpack_bytes +=
            static_cast<double>(fixture_.blobs[blob].size());
        const std::vector<eval::CorpusTarget> targets = targets_of(images);
        const std::vector<std::uint64_t> keys =
            traced_keys(targets, tracer, counts);

        const auto indexes = traced_tiers(targets, keys, tracer, counts);
        traced_query_probe(cves(), targets, indexes, tracer, counts);

        std::vector<std::size_t> hunt;
        std::vector<const QuerySet *> queries;
        for (std::size_t q = 0; q < cves().size(); ++q) {
            hunt.push_back(q);
            queries.push_back(&replay_queries_[q]);
        }
        return traced_games(hunt, queries, targets, keys, raw(indexes),
                            tracer, counts);
    }

    std::string
    replay_shape(const firmup::trace::Snapshot &,
                 const ReplayCounts &counts) const override
    {
        return counts.lifts > 0 ? std::string()
                                : "ingest replay lifted nothing";
    }

  private:
    std::vector<firmware::FirmwareImage>
    one_image(std::size_t blob) const
    {
        std::vector<firmware::FirmwareImage> images;
        images.push_back(unpack_blob(fixture_.blobs[blob]));
        return images;
    }

    std::vector<std::size_t>
    ordinals_of_blob(std::size_t blob, std::size_t count) const
    {
        std::vector<std::size_t> ordinals(count);
        for (std::size_t j = 0; j < count; ++j) {
            ordinals[j] = fixture_.first_target[blob] + j;
        }
        return ordinals;
    }

    /** Copy of each content key that arrived first this pass. */
    std::map<std::uint64_t, std::uint64_t> first_copy_;
};

/** Unpack every blob of @p fixture. */
std::vector<firmware::FirmwareImage>
unpack_all(const Fixture &fixture)
{
    std::vector<firmware::FirmwareImage> images;
    for (const firmup::ByteBuffer &blob : fixture.blobs) {
        images.push_back(unpack_blob(blob));
    }
    return images;
}

/**
 * `firmup search CVE *.fw --index-cache DIR`, one process per hunt: a
 * store filled in set-up, and each op unpacks every blob and hunts one
 * CVE with a fresh Driver over that store.
 */
class HuntWarm final : public Base
{
  public:
    HuntWarm(const Fixture &fixture, VerdictBook &book,
             const std::string &work_dir, unsigned threads)
        : Base(fixture, book, work_dir)
    {
        const std::vector<firmware::FirmwareImage> images =
            unpack_all(fixture_);
        eval::SearchOptions options;
        options.index_cache_dir = store_dir_;
        eval::Driver filler(options);
        filler.search_corpus_batch(cves(), targets_of(images), threads);
        if (auto why = health_failure(filler.health()); !why.empty()) {
            throw std::runtime_error("store fill: " + why);
        }
    }

    std::size_t round_size() const override { return cves().size(); }
    double round_seconds() const override { return 0.5; }

    std::string
    op(std::size_t cve, unsigned threads) override
    {
        const std::vector<firmware::FirmwareImage> images =
            unpack_all(fixture_);
        const std::vector<eval::CorpusTarget> targets = targets_of(images);
        eval::SearchOptions options;
        options.index_cache_dir = store_dir_;
        eval::Driver driver(options);
        const auto row = driver.search_corpus(cves()[cve], targets, threads);
        const eval::ScanHealth &health = driver.health();
        std::string why = health_failure(health);
        if (health.cache_misses != 0 || health.query_cache_misses != 0 ||
            health.cache_hits != fixture_.distinct) {
            why = "shape: a warm hunt must read every target and query "
                  "from the store";
        }
        const auto ordinals = ordinals_of(fixture_, images, targets);
        if (auto bad = record(cve, row, keys_of(targets), ordinals,
                              corpus_firsts(ordinals));
            !bad.empty()) {
            why = bad;
        }
        return why;
    }

    void prepare_replay() override { build_replay_queries(); }

    std::string
    replay(std::size_t cve, Tracer &tracer, ReplayCounts &counts) override
    {
        std::vector<firmware::FirmwareImage> images;
        for (const firmup::ByteBuffer &blob : fixture_.blobs) {
            images.push_back(tracer.span("firmware.unpack", [&] {
                return unpack_blob(blob);
            }));
            counts.unpack_bytes += static_cast<double>(blob.size());
        }
        const std::vector<eval::CorpusTarget> targets = targets_of(images);
        const std::vector<std::uint64_t> keys =
            traced_keys(targets, tracer, counts);

        const auto indexes = traced_tiers(targets, keys, tracer, counts);
        traced_query_probe({cves()[cve]}, targets, indexes, tracer, counts);

        return traced_games({cve}, {&replay_queries_[cve]}, targets, keys,
                            raw(indexes), tracer, counts);
    }

    std::string
    replay_shape(const firmup::trace::Snapshot &counters,
                 const ReplayCounts &counts) const override
    {
        if (counters.counter("lift.executables") != 0 || counts.lifts != 0 ||
            counters.counter("cache.misses") != 0 ||
            counters.counter("cache.query_misses") != 0) {
            return "shape: warm replay lifted or missed the store";
        }
        return {};
    }
};

/**
 * A long-lived hunting service: one Driver preindexed in set-up with
 * every CVE's per-ISA queries built; each op hunts one CVE over the
 * resident indexes through the prebuilt-query search_corpus overload.
 */
class HuntHot final : public Base
{
  public:
    HuntHot(const Fixture &fixture, VerdictBook &book,
            const std::string &work_dir, unsigned threads)
        : Base(fixture, book, work_dir)
    {
        resident_.images = unpack_all(fixture_);
        targets_ = eval::corpus_targets(resident_);
        driver_.preindex(resident_, threads);
        for (const firmware::CveRecord &cve : cves()) {
            queries_.push_back(driver_.build_queries(cve, targets_, threads));
        }
        if (auto why = health_failure(driver_.health()); !why.empty()) {
            throw std::runtime_error("preindex: " + why);
        }
        keys_ = keys_of(targets_);
        ordinals_ = ordinals_of(fixture_, resident_.images, targets_);
        firsts_ = corpus_firsts(ordinals_);
    }

    std::size_t round_size() const override { return cves().size(); }
    double round_seconds() const override { return 0.3; }

    std::string
    op(std::size_t cve, unsigned threads) override
    {
        const eval::ScanHealth before = driver_.health();
        const auto row = driver_.search_corpus(queries_[cve], targets_,
                                               threads);
        const eval::ScanHealth &after = driver_.health();
        std::string why = health_failure(after);
        if (after.executables_seen != before.executables_seen ||
            after.cache_hits + after.cache_misses !=
                before.cache_hits + before.cache_misses ||
            after.query_cache_hits + after.query_cache_misses !=
                before.query_cache_hits + before.query_cache_misses ||
            after.canon_memo_hits + after.canon_memo_misses !=
                before.canon_memo_hits + before.canon_memo_misses) {
            why = "shape: a hot hunt must not lift, index, touch a store "
                  "or build a query";
        }
        if (auto bad = record(cve, row, keys_, ordinals_, firsts_);
            !bad.empty()) {
            why = bad;
        }
        return why;
    }

    void
    prepare_replay() override
    {
        // Resolve the resident indexes once: pure cache lookups.
        for (std::size_t t = 0; t < targets_.size(); ++t) {
            resident_index_.emplace(keys_[t],
                                    driver_.index_target(*targets_[t].exe));
        }
        resident_bytes_ = 0;
        std::set<const sim::ExecutableIndex *> distinct;
        for (const auto &[key, index] : resident_index_) {
            if (index != nullptr && distinct.insert(index).second) {
                resident_bytes_ += static_cast<double>(index->memory_bytes());
            }
        }
    }

    std::string
    replay(std::size_t cve, Tracer &tracer, ReplayCounts &counts) override
    {
        const std::vector<std::uint64_t> keys =
            traced_keys(targets_, tracer, counts);
        std::vector<const sim::ExecutableIndex *> indexes;
        for (std::uint64_t key : keys) {
            indexes.push_back(resident_index_.at(key));
        }
        counts.index_bytes += resident_bytes_;
        return traced_games({cve}, {&queries_[cve]}, targets_, keys,
                            indexes, tracer, counts);
    }

    std::string
    replay_shape(const firmup::trace::Snapshot &counters,
                 const ReplayCounts &counts) const override
    {
        if (counters.counter("lift.executables") != 0 || counts.lifts != 0 ||
            counts.loads != 0 || counts.query_probes != 0 ||
            counters.counter("cache.hits") + counters.counter("cache.misses") +
                    counters.counter("cache.query_hits") +
                    counters.counter("cache.query_misses") !=
                0) {
            return "shape: hot replay lifted, loaded or built a query";
        }
        return {};
    }

  private:
    firmware::Corpus resident_;  ///< unpacked images; no ground truth
    std::vector<eval::CorpusTarget> targets_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::size_t> ordinals_;
    std::vector<std::uint64_t> firsts_;
    eval::Driver driver_;
    std::vector<QuerySet> queries_;
    std::map<std::uint64_t, const sim::ExecutableIndex *> resident_index_;
    double resident_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload>
make_workload(const std::string &name, const Fixture &fixture,
              VerdictBook &book, const std::string &work_dir,
              unsigned threads)
{
    if (name == "ingest_cold") {
        return std::make_unique<IngestCold>(fixture, book, work_dir);
    }
    if (name == "hunt_warm") {
        return std::make_unique<HuntWarm>(fixture, book, work_dir, threads);
    }
    if (name == "hunt_hot") {
        return std::make_unique<HuntHot>(fixture, book, work_dir, threads);
    }
    throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
