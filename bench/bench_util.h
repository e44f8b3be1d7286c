/**
 * @file
 * Shared plumbing for the table/figure reproduction benches: argument
 * parsing and fixed-width table rendering.  Every bench prints the
 * rows the corresponding paper table reports (EXPERIMENTS.md maps the
 * outputs back to the paper).
 */
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/harness.h"
#include "obs/profile/profile_export.h"

namespace conair::bench {

/** Parses "--runs N"-style flags; returns the default otherwise. */
inline unsigned
argUnsigned(int argc, char **argv, const char *flag, unsigned def)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return unsigned(std::strtoul(argv[i + 1], nullptr, 10));
    return def;
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
