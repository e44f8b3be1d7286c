/**
 * @file
 * Shared plumbing for the table/figure reproduction benches: argument
 * parsing and fixed-width table rendering.  Every bench prints the
 * rows the corresponding paper table reports (EXPERIMENTS.md maps the
 * outputs back to the paper).
 */
#pragma once

#include <climits>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "apps/harness.h"
#include "obs/profile/profile_export.h"
#include "support/str.h"

namespace conair::bench {

/*
 * The strict command-line rule: an unknown flag, a missing value or a
 * count that is not a positive number prints one error line and the
 * usage line, and the bench exits 2.
 */

/** Prints "TOOL: WHY" and "usage: TOOL USAGE" to stderr; returns 2,
 *  the exit code of a malformed command line. */
inline int
usageExit(const char *tool, const char *usage, const std::string &why)
{
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", tool, why.c_str(), tool,
                 usage);
    return 2;
}

/** Reads the count after the flag at argv[@p i] and steps @p i past
 *  it: digits only, 1 to UINT_MAX.  False when it is missing or
 *  malformed. */
inline bool
takePositiveCount(int argc, char **argv, int &i, unsigned &out)
{
    uint64_t v = 0;
    if (i + 1 >= argc || !parseU64(argv[++i], v) || v == 0 || v > UINT_MAX)
        return false;
    out = unsigned(v);
    return true;
}

/** One count option of a strict bench command line. */
struct CountFlag
{
    const char *name; ///< e.g. "--runs"
    unsigned *value;  ///< keeps its default unless the flag is given
};

/** Reads a command line made only of count options, under the strict
 *  rule above.  Returns 0 when it parsed, else the exit code (2). */
inline int
parseCountFlags(int argc, char **argv, const char *tool, const char *usage,
                std::initializer_list<CountFlag> flags)
{
    for (int i = 1; i < argc; ++i) {
        const CountFlag *hit = nullptr;
        for (const CountFlag &f : flags)
            if (std::strcmp(argv[i], f.name) == 0)
                hit = &f;
        if (!hit)
            return usageExit(tool, usage, std::string("unknown argument '") +
                                              argv[i] + "'");
        if (!takePositiveCount(argc, argv, i, *hit->value))
            return usageExit(tool, usage, std::string(hit->name) +
                                              " needs a positive count");
    }
    return 0;
}

/** Simple fixed-width table printer. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    void
    row(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<size_t> width(headers_.size());
        for (size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &r : rows_)
            for (size_t c = 0; c < r.size() && c < width.size(); ++c)
                width[c] = std::max(width[c], r[c].size());

        auto line = [&](const std::vector<std::string> &cells) {
            std::string out;
            for (size_t c = 0; c < width.size(); ++c) {
                std::string cell = c < cells.size() ? cells[c] : "";
                out += cell;
                out.append(width[c] - cell.size() + 2, ' ');
            }
            std::printf("%s\n", out.c_str());
        };
        line(headers_);
        std::string rule;
        for (size_t c = 0; c < width.size(); ++c)
            rule.append(width[c] + 2, '-');
        std::printf("%s\n", rule.c_str());
        for (const auto &r : rows_)
            line(r);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** --profile FILE: the speedscope JSON at @p path plus the folded
 *  stacks next to it (obs::prof::writeProfileFiles), reported on
 *  stdout; false (with the error on stderr) when a write fails. */
inline bool
writeProfileArtifacts(const obs::prof::ProfileDoc &doc,
                      const std::string &name, const std::string &path)
{
    std::string err;
    if (!obs::prof::writeProfileFiles(doc, name, path, err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return false;
    }
    std::printf("wrote %s (speedscope JSON)\nwrote %s (folded stacks)\n",
                path.c_str(), obs::prof::foldedPath(path).c_str());
    return true;
}

inline std::string
fmt(const char *f, ...)
{
    va_list ap;
    va_start(ap, f);
    char buf[256];
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

} // namespace conair::bench
