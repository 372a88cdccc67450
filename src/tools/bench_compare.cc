#include "tools/bench_compare.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace kona {

namespace {

/**
 * Minimal recursive-descent parser for the registry dump shape:
 * {"counters": {k: n}, "gauges": {k: n}, "histograms": {k: {f: n}}}.
 * Tolerant of any nesting of objects with string keys and numeric
 * leaves; arrays and non-numeric leaves are rejected (the dump never
 * contains them).
 */
struct JsonCursor
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    explicit JsonCursor(const std::string &t) : text(t) {}

    void skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool fail(const std::string &what)
    {
        std::ostringstream oss;
        oss << what << " at offset " << pos;
        error = oss.str();
        return false;
    }

    bool expect(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool parseString(std::string &out)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\' && pos < text.size()) {
                char esc = text[pos++];
                switch (esc) {
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u':
                    // Registry names are ASCII; keep the escape as-is.
                    out += "\\u";
                    break;
                  default: out += esc; break;
                }
            } else {
                out += c;
            }
        }
        if (pos >= text.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool parseNumber(double &out)
    {
        skipWs();
        const char *start = text.c_str() + pos;
        char *end = nullptr;
        out = std::strtod(start, &end);
        if (end == start)
            return fail("expected number");
        pos += static_cast<std::size_t>(end - start);
        return true;
    }

    /** Object whose leaves land in @p out under "<prefix><key>". */
    bool parseObject(const std::string &prefix,
                     std::map<std::string, double> &out)
    {
        if (!expect('{'))
            return false;
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            std::string key;
            if (!parseString(key) || !expect(':'))
                return false;
            skipWs();
            if (pos < text.size() && text[pos] == '{') {
                if (!parseObject(prefix + key + ".", out))
                    return false;
            } else {
                double value = 0.0;
                if (!parseNumber(value))
                    return false;
                out[prefix + key] = value;
            }
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            return expect('}');
        }
    }
};

const char *
directionName(CompareDirection d)
{
    switch (d) {
    case CompareDirection::HigherBetter: return "higher";
    case CompareDirection::LowerBetter: return "lower";
    case CompareDirection::Band: return "band";
    case CompareDirection::Exact: return "exact";
    case CompareDirection::Ignore: return "ignore";
    }
    return "?";
}

const CompareRule *
firstMatch(const std::vector<CompareRule> &rules,
           const std::string &key)
{
    for (const CompareRule &rule : rules) {
        if (globMatch(rule.pattern, key))
            return &rule;
    }
    return nullptr;
}

/** Classify one present-on-both-sides metric under @p rule. */
CompareStatus
classify(const CompareRule &rule, double baseline, double current,
         double &relDelta)
{
    double denom = std::fabs(baseline);
    relDelta = denom > 0.0 ? (current - baseline) / denom
               : current == baseline ? 0.0
                                     : std::copysign(HUGE_VAL,
                                                     current - baseline);
    double regression = 0.0; // positive = worse, in relative units
    switch (rule.direction) {
    case CompareDirection::HigherBetter:
        regression = -relDelta;
        break;
    case CompareDirection::LowerBetter:
        regression = relDelta;
        break;
    case CompareDirection::Band:
        regression = std::fabs(relDelta);
        break;
    case CompareDirection::Exact:
        // Tolerance is absolute for exact rules (default 0).
        return std::fabs(current - baseline) > rule.failTol
                   ? CompareStatus::Fail
                   : CompareStatus::Pass;
    case CompareDirection::Ignore:
        return CompareStatus::Pass;
    }
    if (regression > rule.failTol)
        return CompareStatus::Fail;
    if (regression > rule.warnTol)
        return CompareStatus::Warn;
    return CompareStatus::Pass;
}

} // namespace

bool
parseMetricsJson(const std::string &text,
                 std::map<std::string, double> &out, std::string *error)
{
    JsonCursor cursor(text);
    std::map<std::string, double> parsed;
    if (!cursor.parseObject("", parsed)) {
        if (error != nullptr)
            *error = cursor.error;
        return false;
    }
    out = std::move(parsed);
    return true;
}

bool
globMatch(const std::string &pattern, const std::string &key)
{
    // Iterative glob with single-star backtracking ('*' spans dots).
    std::size_t p = 0, k = 0;
    std::size_t starP = std::string::npos, starK = 0;
    while (k < key.size()) {
        if (p < pattern.size() &&
            (pattern[p] == key[k] || pattern[p] == '?')) {
            ++p;
            ++k;
        } else if (p < pattern.size() && pattern[p] == '*') {
            starP = p++;
            starK = k;
        } else if (starP != std::string::npos) {
            p = starP + 1;
            k = ++starK;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

bool
parseCompareRules(const std::string &text,
                  std::vector<CompareRule> &out, std::string *error)
{
    std::vector<CompareRule> rules;
    std::istringstream is(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        CompareRule rule;
        std::string direction;
        if (!(fields >> rule.pattern))
            continue; // blank / comment-only line
        if (!(fields >> direction)) {
            if (error != nullptr)
                *error = "line " + std::to_string(lineNo) +
                         ": missing direction";
            return false;
        }
        if (direction == "higher")
            rule.direction = CompareDirection::HigherBetter;
        else if (direction == "lower")
            rule.direction = CompareDirection::LowerBetter;
        else if (direction == "band")
            rule.direction = CompareDirection::Band;
        else if (direction == "exact")
            rule.direction = CompareDirection::Exact;
        else if (direction == "ignore")
            rule.direction = CompareDirection::Ignore;
        else {
            if (error != nullptr)
                *error = "line " + std::to_string(lineNo) +
                         ": unknown direction \"" + direction + "\"";
            return false;
        }
        rule.failTol = 0.0;
        if (rule.direction != CompareDirection::Ignore &&
            !(fields >> rule.failTol) &&
            rule.direction != CompareDirection::Exact) {
            if (error != nullptr)
                *error = "line " + std::to_string(lineNo) +
                         ": missing tolerance";
            return false;
        }
        fields.clear();
        if (!(fields >> rule.warnTol))
            rule.warnTol = rule.failTol / 2.0;
        rules.push_back(std::move(rule));
    }
    out = std::move(rules);
    return true;
}

CompareReport
compareMetrics(const std::map<std::string, double> &baseline,
               const std::map<std::string, double> &current,
               const std::vector<CompareRule> &rules)
{
    CompareReport report;
    for (const auto &[key, baseValue] : baseline) {
        const CompareRule *rule = firstMatch(rules, key);
        if (rule == nullptr ||
            rule->direction == CompareDirection::Ignore) {
            ++report.ignored;
            continue;
        }
        CompareFinding f;
        f.key = key;
        f.baseline = baseValue;
        f.rule = *rule;
        auto it = current.find(key);
        if (it == current.end()) {
            f.status = CompareStatus::Missing;
            ++report.failed;
        } else {
            f.current = it->second;
            f.status = classify(*rule, baseValue, it->second,
                                f.relDelta);
            switch (f.status) {
            case CompareStatus::Pass: ++report.passed; break;
            case CompareStatus::Warn: ++report.warned; break;
            default: ++report.failed; break;
            }
        }
        report.findings.push_back(std::move(f));
    }
    // A gated metric appearing only in the current run means the
    // baseline is stale: flag it so the refresh is deliberate.
    for (const auto &[key, value] : current) {
        if (baseline.count(key) > 0)
            continue;
        const CompareRule *rule = firstMatch(rules, key);
        if (rule == nullptr ||
            rule->direction == CompareDirection::Ignore) {
            ++report.ignored;
            continue;
        }
        CompareFinding f;
        f.key = key;
        f.current = value;
        f.rule = *rule;
        f.status = CompareStatus::Missing;
        ++report.failed;
        report.findings.push_back(std::move(f));
    }
    return report;
}

void
printCompareReport(std::ostream &os, const CompareReport &report,
                   bool verbose)
{
    for (const CompareFinding &f : report.findings) {
        if (!verbose && f.status == CompareStatus::Pass)
            continue;
        const char *label = f.status == CompareStatus::Pass   ? "PASS"
                            : f.status == CompareStatus::Warn ? "WARN"
                            : f.status == CompareStatus::Fail
                                ? "FAIL"
                                : "MISSING";
        os << std::left << std::setw(8) << label << std::right << f.key
           << ": baseline " << f.baseline << ", current " << f.current;
        if (f.status != CompareStatus::Missing) {
            char delta[64];
            std::snprintf(delta, sizeof(delta), "%+.1f%%",
                          f.relDelta * 100.0);
            os << " (" << delta << ", "
               << directionName(f.rule.direction) << " tol "
               << f.rule.failTol << ")";
        }
        os << "\n";
    }
    os << report.passed << " passed, " << report.warned << " warned, "
       << report.failed << " failed, " << report.ignored
       << " ungated\n";
}

} // namespace kona
