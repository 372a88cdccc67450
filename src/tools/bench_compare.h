/**
 * @file
 * bench_compare: regression gating over --metrics-json exports.
 *
 * Every bench writes its headline numbers as "result.*" gauges into a
 * BENCH_*.json registry dump (see bench/bench_util.h). This library
 * diffs such a dump against a checked-in baseline under per-metric
 * tolerance rules, so CI can turn "the numbers moved" into a red X
 * instead of a silently drifting artifact.
 *
 * The registry dump is flattened to dotted keys:
 *   counters.<name>              counter value
 *   gauges.<name>                gauge value
 *   histograms.<name>.<field>    count / sum / mean / p50 / p95 / p99
 *                                / max
 *
 * Rules come from a plain-text file (bench/baselines/compare.rules),
 * one rule per line, first match wins:
 *   <glob> <direction> <fail-tol> [<warn-tol>]
 * where <glob> matches flattened keys with '*' (any run, including
 * dots) and '?' (one char), and <direction> is one of
 *   higher  regression = value dropped by more than fail-tol
 *           (relative); improvements never fail
 *   lower   regression = value rose by more than fail-tol (relative);
 *           improvements never fail
 *   band    |relative delta| > fail-tol fails in either direction
 *           (for deterministic simulated metrics)
 *   exact   |absolute delta| > fail-tol fails (fail-tol defaults to 0;
 *           use for invariants like allocs_per_access = 0)
 *   ignore  never compared (explicitly ungated)
 * <warn-tol> defaults to half of <fail-tol>. Keys matching no rule are
 * not gated. A key present in the baseline but missing from the
 * current run (or vice versa) fails when it matches a non-ignore rule:
 * losing a gated metric is itself a regression.
 */

#ifndef KONA_TOOLS_BENCH_COMPARE_H
#define KONA_TOOLS_BENCH_COMPARE_H

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace kona {

/** Parse a MetricRegistry::writeJson dump into flattened key/value
 *  pairs. Returns false (and sets @p error) on malformed input. */
bool parseMetricsJson(const std::string &text,
                      std::map<std::string, double> &out,
                      std::string *error = nullptr);

/** '*' spans any run (including '.'), '?' one char, else literal. */
bool globMatch(const std::string &pattern, const std::string &key);

enum class CompareDirection
{
    HigherBetter,
    LowerBetter,
    Band,
    Exact,
    Ignore,
};

/** One line of the rules file. */
struct CompareRule
{
    std::string pattern;
    CompareDirection direction = CompareDirection::Band;
    double failTol = 0.0;
    double warnTol = 0.0;
};

/** Parse a rules file body. Returns false + @p error on a bad line. */
bool parseCompareRules(const std::string &text,
                       std::vector<CompareRule> &out,
                       std::string *error = nullptr);

enum class CompareStatus
{
    Pass,
    Warn,    ///< moved past warn-tol but within fail-tol
    Fail,    ///< regression past fail-tol
    Missing, ///< gated key absent on one side (counts as Fail)
};

/** Verdict for one gated metric. */
struct CompareFinding
{
    std::string key;
    double baseline = 0.0;
    double current = 0.0;
    double relDelta = 0.0; ///< (current - baseline) / |baseline|
    CompareStatus status = CompareStatus::Pass;
    /** The rule that gated this key: a copy, so a report stays valid
     *  after the rules it was computed from are gone. */
    CompareRule rule;
};

/** Everything one comparison produced. */
struct CompareReport
{
    std::vector<CompareFinding> findings; ///< gated keys, input order
    std::size_t passed = 0;
    std::size_t warned = 0;
    std::size_t failed = 0;  ///< includes Missing
    std::size_t ignored = 0; ///< keys matching no rule or an ignore rule

    bool ok() const { return failed == 0; }
};

/** Compare @p current against @p baseline under @p rules. */
CompareReport
compareMetrics(const std::map<std::string, double> &baseline,
               const std::map<std::string, double> &current,
               const std::vector<CompareRule> &rules);

/** Human-readable table: every warn/fail finding plus a summary line.
 *  @p verbose also lists passing findings. */
void printCompareReport(std::ostream &os, const CompareReport &report,
                        bool verbose = false);

} // namespace kona

#endif // KONA_TOOLS_BENCH_COMPARE_H
