/**
 * @file
 * What every workload shares: the seeded firmware corpus as packed
 * blobs, its ground truth, verdict bookkeeping and the Table 2 scoring
 * rule, plus the process clocks the metrics are read from.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "eval/driver.h"
#include "firmware/corpus.h"

namespace perfbench {

namespace eval = firmup::eval;
namespace firmware = firmup::firmware;

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since @p start. */
double seconds_since(Clock::time_point start);

/** User + system CPU seconds of the whole process so far. */
double process_cpu_seconds();

/** Peak resident set of the process so far, in MiB. */
double peak_rss_mb();

/**
 * The corpus as the program under test sees it: packed vendor blobs.
 * The ground truth is kept apart for scoring only; the unpacked images
 * of the generator are dropped, so every executable a workload hunts
 * comes out of unpack_firmware.
 */
struct Fixture
{
    firmware::CorpusOptions options;
    std::vector<firmup::ByteBuffer> blobs;
    firmware::Corpus truth;  ///< ground truth only; images are empty
    /** First global target ordinal of each blob (corpus_targets order). */
    std::vector<std::size_t> first_target;
    /** (image index, executable name) of each global target ordinal. */
    std::vector<std::pair<int, std::string>> target_names;
    /** copy_id of each global target ordinal, as unpacked. */
    std::vector<std::uint64_t> target_copies;
    /**
     * For each global target ordinal, the copy_id of the first target in
     * corpus order with the same content key: the copy whose index
     * answers for the key when targets are indexed in corpus order.
     */
    std::vector<std::uint64_t> corpus_first_copy;
    std::size_t executables = 0;
    std::size_t distinct = 0;  ///< distinct content keys
};

/** Generate the corpus of @p options; pack it as `firmup corpus` does. */
Fixture make_fixture(const firmware::CorpusOptions &options);

/**
 * Identity of the whole executable: a hash of its FWEX serialization.
 * eval::content_key covers only the name and text bytes, so copies of
 * one library shipped at different load addresses share a content key
 * but not a copy_id.
 */
std::uint64_t copy_id(const firmup::loader::Executable &exe);

/** Unpack one blob; throws when the blob does not unpack cleanly. */
firmware::FirmwareImage unpack_blob(const firmup::ByteBuffer &blob);

/** Scan targets of @p images, image index = position in @p images. */
std::vector<eval::CorpusTarget> targets_of(
    const std::vector<firmware::FirmwareImage> &images);

/** The part of an outcome two runs of the same hunt must agree on. */
struct Verdict
{
    bool indexed = false;
    bool detected = false;
    std::uint64_t entry = 0;
    int sim = 0;
    int steps = 0;

    bool operator==(const Verdict &) const = default;

    /** "detected@entry sim=S steps=N" (or "not indexed"), for messages. */
    std::string describe() const;
};

Verdict verdict_of(const eval::CorpusOutcome &outcome);

/** Table 2 counts (eval::run_cve_hunt's rule). */
struct Tally
{
    int confirmed = 0;
    int benign = 0;
    int fps = 0;
    int missed = 0;

    /** confirmed / (confirmed + fps); 1 when nothing was detected. */
    double precision() const;
    /** confirmed / (confirmed + missed); 1 when nothing was there. */
    double recall() const;
};

/** Verdict of each (CVE index, copy_id) pair. */
using ReferenceVerdicts =
    std::map<std::pair<std::size_t, std::uint64_t>, Verdict>;

/**
 * The reference verdict of every (CVE index, copy_id) pair: the verdict
 * the program gives a target when that copy's index is the one it
 * searches. Copies that come first in corpus order among those sharing
 * their content key get the verdicts of one search_corpus_batch of the
 * whole catalog over every blob in corpus order, by a fresh Driver with
 * no store; every other copy gets that of a fresh Driver's batch over it
 * alone. It depends only on the build and the corpus, never on which
 * runs came before. Written to @p path (atomic rename); throws when a
 * hunt fails.
 */
void write_reference(const Fixture &fixture, unsigned threads,
                     const std::string &path);

/** The reference verdicts write_reference left at @p path. */
ReferenceVerdicts read_reference(const std::string &path);

/**
 * Every verdict one run produced, each held to the reference.
 *
 * eval::content_key ignores load addresses, so when copies of one
 * library ship at different addresses, whichever copy the program
 * indexes first answers for all of them (a known library defect: the
 * others are reported at the first copy's addresses). Which copy that is
 * follows the order targets arrive in, so a target's verdict must equal
 * the reference verdict of its own copy, or of the copy that the
 * workload's arrival order put first for its content key. Verdicts of
 * the second kind that differ from the first are counted as borrowed
 * and reported, not failed.
 */
class VerdictBook
{
  public:
    explicit VerdictBook(ReferenceVerdicts reference);

    /**
     * Record the verdict of CVE @p cve on the target at global ordinal
     * @p target (content key @p key, own copy @p own), whose content key
     * the copy @p first arrived with first. Returns why it disagrees
     * with the reference, or empty.
     */
    std::string record(std::size_t cve, std::size_t target,
                       std::uint64_t key, std::uint64_t own,
                       std::uint64_t first, const Verdict &verdict);

    /**
     * The first verdict recorded for (@p cve, @p key), or nullptr: what
     * the traced replay must reproduce.
     */
    const Verdict *find(std::size_t cve, std::uint64_t key) const;

    /** Table 2 tally over every (CVE, target) pair recorded. */
    Tally tally(const Fixture &fixture) const;

    /** Verdicts recorded that came from another copy's index and differ. */
    std::size_t borrowed() const { return borrowed_; }

  private:
    ReferenceVerdicts reference_;
    std::map<std::pair<std::size_t, std::uint64_t>, Verdict> by_key_;
    std::map<std::pair<std::size_t, std::size_t>, Verdict> by_target_;
    std::size_t borrowed_ = 0;
};

/** Why @p health marks its hunt failed, or empty. */
std::string health_failure(const eval::ScanHealth &health);

/** The CVE catalog every workload hunts (Table 2's nine). */
const std::vector<firmware::CveRecord> &cves();

}  // namespace perfbench
