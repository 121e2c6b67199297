#include "fixture.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "firmware/catalog.h"
#include "firmware/image.h"
#include "loader/fwelf.h"
#include "support/hash.h"
#include "support/rng.h"

namespace perfbench {

double
seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
process_cpu_seconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Fixture
make_fixture(const firmware::CorpusOptions &options)
{
    Fixture fixture;
    fixture.options = options;
    fixture.truth = firmware::build_corpus(options);
    // Same blob seed as `firmup corpus`, so the blobs are byte-identical
    // to the CLI's for the same corpus options.
    firmup::Rng rng(options.seed ^ 0xb10b);
    std::set<std::uint64_t> keys;
    for (std::size_t i = 0; i < fixture.truth.images.size(); ++i) {
        const firmware::FirmwareImage &image = fixture.truth.images[i];
        fixture.blobs.push_back(firmware::pack_firmware(image, rng));
        fixture.first_target.push_back(fixture.executables);
        for (const firmup::loader::Executable &exe : image.executables) {
            fixture.target_names.emplace_back(static_cast<int>(i),
                                              exe.name);
            keys.insert(eval::content_key(exe));
            ++fixture.executables;
        }
    }
    fixture.distinct = keys.size();
    fixture.truth.images.clear();
    fixture.truth.images.shrink_to_fit();
    // Copy identities of the executables as the workloads see them.
    std::map<std::uint64_t, std::uint64_t> first_copy;  // by content key
    for (const firmup::ByteBuffer &blob : fixture.blobs) {
        for (const firmup::loader::Executable &exe :
             unpack_blob(blob).executables) {
            const std::uint64_t copy = copy_id(exe);
            fixture.target_copies.push_back(copy);
            fixture.corpus_first_copy.push_back(
                first_copy.try_emplace(eval::content_key(exe), copy)
                    .first->second);
        }
    }
    if (fixture.target_copies.size() != fixture.executables) {
        throw std::runtime_error("unpacked blobs differ from the corpus");
    }
    return fixture;
}

std::uint64_t
copy_id(const firmup::loader::Executable &exe)
{
    const firmup::ByteBuffer bytes = firmup::loader::write_fwelf(exe);
    return firmup::fnv1a64(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
}

firmware::FirmwareImage
unpack_blob(const firmup::ByteBuffer &blob)
{
    auto unpacked = firmware::unpack_firmware(blob);
    if (!unpacked.ok()) {
        throw std::runtime_error("unpack failed: " +
                                 unpacked.error_message());
    }
    if (unpacked.value().damaged_members != 0) {
        throw std::runtime_error("unpack skipped damaged members");
    }
    return std::move(unpacked).take().image;
}

std::vector<eval::CorpusTarget>
targets_of(const std::vector<firmware::FirmwareImage> &images)
{
    std::vector<eval::CorpusTarget> targets;
    for (std::size_t i = 0; i < images.size(); ++i) {
        for (const firmup::loader::Executable &exe : images[i].executables) {
            targets.push_back({&exe, static_cast<int>(i)});
        }
    }
    return targets;
}

Verdict
verdict_of(const eval::CorpusOutcome &outcome)
{
    Verdict v;
    v.indexed = outcome.indexed;
    v.detected = outcome.outcome.detected;
    v.entry = outcome.outcome.matched_entry;
    v.sim = outcome.outcome.sim;
    v.steps = outcome.outcome.steps;
    return v;
}

std::string
Verdict::describe() const
{
    if (!indexed) {
        return "not indexed";
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s@0x%llx sim=%d steps=%d",
                  detected ? "detected" : "clean",
                  static_cast<unsigned long long>(entry), sim, steps);
    return buf;
}

double
Tally::precision() const
{
    const int detected = confirmed + fps;
    return detected == 0 ? 1.0 : static_cast<double>(confirmed) / detected;
}

double
Tally::recall() const
{
    const int present = confirmed + missed;
    return present == 0 ? 1.0 : static_cast<double>(confirmed) / present;
}

void
write_reference(const Fixture &fixture, unsigned threads,
                const std::string &path)
{
    std::vector<firmware::FirmwareImage> images;
    for (const firmup::ByteBuffer &blob : fixture.blobs) {
        images.push_back(unpack_blob(blob));
    }
    const std::vector<eval::CorpusTarget> targets = targets_of(images);
    const std::vector<std::uint64_t> &copies = fixture.target_copies;
    ReferenceVerdicts reference;
    // Hunt the catalog with a fresh Driver over the targets at
    // @p ordinals; keep the verdicts of those that @p keep accepts.
    const auto hunt = [&](const std::vector<std::size_t> &ordinals,
                          const auto &keep) {
        std::vector<eval::CorpusTarget> ts;
        for (std::size_t t : ordinals) {
            ts.push_back(targets[t]);
        }
        eval::Driver driver;
        const auto grid = driver.search_corpus_batch(cves(), ts, threads);
        if (const std::string why = health_failure(driver.health());
            !why.empty()) {
            throw std::runtime_error("reference hunt: " + why);
        }
        for (std::size_t q = 0; q < grid.size(); ++q) {
            for (std::size_t i = 0; i < ts.size(); ++i) {
                if (keep(ordinals[i])) {
                    reference.try_emplace({q, copies[ordinals[i]]},
                                          verdict_of(grid[q][i]));
                }
            }
        }
    };
    // In corpus order every later copy of a content key is answered from
    // the first copy's index, so only the first copies keep their
    // verdicts; each other copy is then hunted alone.
    std::vector<std::size_t> all(targets.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    hunt(all, [&](std::size_t t) {
        return copies[t] == fixture.corpus_first_copy[t];
    });
    for (std::size_t t = 0; t < targets.size(); ++t) {
        if (!reference.contains({0, copies[t]})) {
            hunt({t}, [](std::size_t) { return true; });
        }
    }
    // Line format: cve-index copy-id indexed detected entry sim steps.
    const std::string tmp = path + ".tmp" + std::to_string(getpid());
    {
        std::ofstream out(tmp, std::ios::trunc);
        for (const auto &[pair, v] : reference) {
            out << pair.first << ' ' << pair.second << ' ' << int{v.indexed}
                << ' ' << int{v.detected} << ' ' << v.entry << ' ' << v.sim
                << ' ' << v.steps << '\n';
        }
        if (!out) {
            throw std::runtime_error("cannot write " + tmp);
        }
    }
    std::filesystem::rename(tmp, path);
}

ReferenceVerdicts
read_reference(const std::string &path)
{
    ReferenceVerdicts reference;
    std::ifstream in(path);
    std::string line;
    while (in && std::getline(in, line)) {
        std::istringstream fields(line);
        std::pair<std::size_t, std::uint64_t> pair;
        Verdict v;
        int indexed = 0;
        int detected = 0;
        if (fields >> pair.first >> pair.second >> indexed >> detected >>
            v.entry >> v.sim >> v.steps) {
            v.indexed = indexed != 0;
            v.detected = detected != 0;
            reference[pair] = v;
        }
    }
    if (reference.empty()) {
        throw std::runtime_error("no reference verdicts in " + path);
    }
    return reference;
}

VerdictBook::VerdictBook(ReferenceVerdicts reference)
    : reference_(std::move(reference))
{
}

std::string
VerdictBook::record(std::size_t cve, std::size_t target, std::uint64_t key,
                    std::uint64_t own, std::uint64_t first,
                    const Verdict &verdict)
{
    // Every op is held to the one reference, so two ops that disagree
    // on a pair cannot both pass, and only the one that strays fails.
    by_target_[{cve, target}] = verdict;
    by_key_.try_emplace({cve, key}, verdict);
    const auto mine = reference_.find({cve, own});
    const auto lender = reference_.find({cve, first});
    if (mine == reference_.end() || lender == reference_.end()) {
        return verdict.describe() + " has no reference verdict";
    }
    if (mine->second == verdict) {
        return {};
    }
    if (lender->second == verdict) {
        ++borrowed_;
        return {};
    }
    return verdict.describe() + " differs from the reference " +
           mine->second.describe() +
           (own == first ? std::string()
                         : " (or " + lender->second.describe() +
                               " of the copy that came first)");
}

const Verdict *
VerdictBook::find(std::size_t cve, std::uint64_t key) const
{
    const auto it = by_key_.find({cve, key});
    return it == by_key_.end() ? nullptr : &it->second;
}

Tally
VerdictBook::tally(const Fixture &fixture) const
{
    // eval::run_cve_hunt's Table 2 rule, applied per (CVE, target).
    Tally tally;
    for (const auto &[pair, verdict] : by_target_) {
        if (!verdict.indexed) {
            continue;
        }
        const firmware::CveRecord &cve = cves()[pair.first];
        const auto &[image, name] = fixture.target_names[pair.second];
        const firmware::TruthExe *truth =
            fixture.truth.find_truth(image, name);
        const std::uint32_t truth_entry =
            truth != nullptr && truth->package == cve.package
                ? truth->entry_of(cve.procedure)
                : 0;
        const bool vulnerable =
            truth_entry != 0 &&
            cve.affects(firmware::package_by_name(cve.package),
                        truth->pkg_version);
        if (verdict.detected) {
            if (truth_entry != 0 && verdict.entry == truth_entry) {
                ++(vulnerable ? tally.confirmed : tally.benign);
            } else {
                ++tally.fps;
            }
        } else if (vulnerable) {
            ++tally.missed;
        }
    }
    return tally;
}

std::string
health_failure(const eval::ScanHealth &health)
{
    if (health.quarantined != 0) {
        return "quarantined " + std::to_string(health.quarantined) +
               " executable(s)";
    }
    if (health.games_unresolved != 0) {
        return std::to_string(health.games_unresolved) +
               " unresolved game(s)";
    }
    if (health.cancelled || health.targets_cancelled != 0) {
        return "cancelled";
    }
    return {};
}

const std::vector<firmware::CveRecord> &
cves()
{
    return firmware::cve_database();
}

}  // namespace perfbench
