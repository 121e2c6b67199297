/**
 * @file
 * Accuracy gate: the paper-level results on the default corpus, pinned
 * with exact equality against the corpus manifest's ground truth.
 *
 *  - Table 2: per-CVE confirmed / latest / FP / missed of the wild hunt
 *    (run_cve_hunt over a preindexed driver);
 *  - Fig. 6: per-query FirmUp and BinDiff P / FN / FP of the labeled,
 *    fully stripped experiment (run_labeled with run_bindiff);
 *  - Fig. 8: per-query FirmUp and GitZ counts and their totals.
 *
 * The corpus and every stage after it are deterministic, so any moved
 * count is a changed verdict. A change that moves one on purpose
 * updates the expectation here and says why.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/experiments.h"
#include "firmware/corpus.h"

namespace firmup::eval {
namespace {

/** Thread-invariant results; two workers keep the ctest -j load low. */
constexpr unsigned kThreads = 2;

struct CveCounts
{
    std::string cve_id;
    int confirmed;
    int latest;
    int fps;
    int missed;
};

TEST(AccuracyGate, Table2CveHunt)
{
    const std::vector<CveCounts> want = {
        {"CVE-2011-0762", 12, 5, 0, 3}, {"CVE-2009-4593", 8, 4, 0, 2},
        {"CVE-2012-0036", 5, 3, 0, 1},  {"CVE-2013-1944", 7, 3, 0, 5},
        {"CVE-2013-2168", 9, 4, 0, 4},  {"CVE-2014-4877", 3, 1, 0, 2},
        {"CVE-2016-8618", 6, 3, 0, 9},  {"CVE-2012-2841", 9, 4, 0, 3},
        {"CVE-2015-5621", 6, 2, 0, 0},
    };
    const firmware::Corpus corpus = firmware::build_corpus();
    Driver driver;
    driver.preindex(corpus, kThreads);
    const std::vector<CveHuntRow> rows =
        run_cve_hunt(driver, corpus, kThreads);

    ASSERT_EQ(rows.size(), want.size());
    CveCounts total{"total", 0, 0, 0, 0};
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const CveHuntRow &row = rows[i];
        SCOPED_TRACE(row.cve.cve_id);
        EXPECT_EQ(row.cve.cve_id, want[i].cve_id);
        EXPECT_EQ(row.confirmed, want[i].confirmed);
        EXPECT_EQ(row.latest, want[i].latest);
        EXPECT_EQ(row.fps, want[i].fps);
        EXPECT_EQ(row.missed, want[i].missed);
        EXPECT_EQ(row.skipped, 0);
        total.confirmed += row.confirmed;
        total.latest += row.latest;
        total.fps += row.fps;
        total.missed += row.missed;
    }
    EXPECT_EQ(total.confirmed, 65);
    EXPECT_EQ(total.latest, 29);
    EXPECT_EQ(total.fps, 0);
    EXPECT_EQ(total.missed, 29);
    EXPECT_EQ(driver.health().quarantined, 0u);
}

void
expect_tally(const Tally &got, const Tally &want, const char *tool)
{
    EXPECT_EQ(got.p, want.p) << tool << " P";
    EXPECT_EQ(got.fn, want.fn) << tool << " FN";
    EXPECT_EQ(got.fp, want.fp) << tool << " FP";
}

struct LabeledRow
{
    std::string query;
    int targets;
    Tally firmup;
    Tally other;  ///< BinDiff (Fig. 6) or GitZ (Fig. 8)
};

TEST(AccuracyGate, Fig6FirmUpVsBinDiff)
{
    const std::vector<LabeledRow> want = {
        {"tailmatch", 16, {16, 0, 0}, {5, 0, 11}},
        {"printf_string_upper_bound", 16, {16, 0, 0}, {4, 0, 12}},
        {"alloc_addbyter", 16, {14, 2, 0}, {2, 0, 14}},
        {"vsf_filename_passes_filter", 18, {18, 0, 0}, {6, 0, 12}},
        {"ftp_retrieve_glob", 12, {7, 0, 5}, {1, 0, 11}},
    };
    const firmware::Corpus corpus = firmware::build_corpus();
    Driver driver;
    LabeledOptions options;
    options.cve_ids = {"CVE-2013-1944", "CVE-2013-2168", "CVE-2016-8618",
                       "CVE-2011-0762", "CVE-2014-4877"};
    options.run_bindiff = true;
    options.strip_all_names = true;
    options.threads = kThreads;
    const LabeledResult result = run_labeled(driver, corpus, options);

    ASSERT_EQ(result.rows.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const QueryTally &row = result.rows[i];
        SCOPED_TRACE(want[i].query);
        EXPECT_EQ(row.query, want[i].query);
        EXPECT_EQ(row.targets, want[i].targets);
        expect_tally(row.firmup, want[i].firmup, "FirmUp");
        expect_tally(row.bindiff, want[i].other, "BinDiff");
    }
    expect_tally(result.firmup_total(), {71, 2, 5}, "FirmUp total");
    expect_tally(result.bindiff_total(), {18, 0, 60}, "BinDiff total");
}

TEST(AccuracyGate, Fig8FirmUpVsGitZ)
{
    // GitZ folds misses into false positives (its top-1 always names a
    // procedure); FirmUp's FN and FP are kept apart here.
    const std::vector<LabeledRow> want = {
        {"tailmatch", 16, {16, 0, 0}, {16, 0, 0}},
        {"printf_string_upper_bound", 16, {16, 0, 0}, {16, 0, 0}},
        {"alloc_addbyter", 16, {14, 2, 0}, {13, 0, 3}},
        {"vsf_filename_passes_filter", 18, {18, 0, 0}, {18, 0, 0}},
        {"ftp_retrieve_glob", 12, {7, 0, 5}, {7, 0, 5}},
        {"snmp_pdu_parse", 14, {14, 0, 0}, {14, 0, 0}},
        {"bftpdutmp_log", 20, {20, 0, 0}, {20, 0, 0}},
        {"exif_entry_get_value", 18, {18, 0, 0}, {18, 0, 0}},
        {"curl_easy_unescape", 15, {14, 0, 1}, {13, 0, 2}},
    };
    const firmware::Corpus corpus = firmware::build_corpus();
    Driver driver;
    LabeledOptions options;
    options.cve_ids = {"CVE-2013-1944", "CVE-2013-2168", "CVE-2016-8618",
                       "CVE-2011-0762", "CVE-2014-4877", "CVE-2015-5621",
                       "CVE-2009-4593", "CVE-2012-2841", "CVE-2012-0036"};
    options.run_gitz = true;
    options.threads = kThreads;
    const LabeledResult result = run_labeled(driver, corpus, options);

    ASSERT_EQ(result.rows.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const QueryTally &row = result.rows[i];
        SCOPED_TRACE(want[i].query);
        EXPECT_EQ(row.query, want[i].query);
        EXPECT_EQ(row.targets, want[i].targets);
        expect_tally(row.firmup, want[i].firmup, "FirmUp");
        expect_tally(row.gitz, want[i].other, "GitZ");
    }
    const Tally firmup = result.firmup_total();
    const Tally gitz = result.gitz_total();
    EXPECT_EQ(firmup.p, 137);
    EXPECT_EQ(firmup.total(), 145);
    EXPECT_EQ(gitz.p, 135);
    EXPECT_EQ(gitz.total(), 145);
}

}  // namespace
}  // namespace firmup::eval
