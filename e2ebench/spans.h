/**
 * @file
 * In-memory span recorder of the end-to-end benchmark.
 *
 * Spans are opened around the benchmark's own calls into each layer
 * (the libraries under src/ carry no hooks).  Each span records its
 * name ("<layer>.<what>"), start and end, its parent span and the
 * operation it belongs to (a kernel, a program or a batch).  Nothing
 * is written while the run measures; the spans are dumped when it
 * ends.  A disabled recorder costs one branch per span.
 */
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

inline double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name; ///< "<layer>.<what>", e.g. "fix.validate"
    std::string op;   ///< kernel, program or batch the span serves
    double start = 0;
    double end = 0;
    int parent = -1; ///< index into Tracer::spans(), -1 = root
};

class Tracer
{
  public:
    bool enabled = false;

    int
    open(std::string name, std::string op)
    {
        if (!enabled)
            return -1;
        spans_.push_back({std::move(name), std::move(op), nowSeconds(), 0,
                          current_});
        current_ = int(spans_.size()) - 1;
        return current_;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[size_t(id)].end = nowSeconds();
        current_ = spans_[size_t(id)].parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration per span name. */
    std::map<std::string, double>
    totals() const
    {
        std::map<std::string, double> t;
        for (const Span &s : spans_)
            t[s.name] += s.end - s.start;
        return t;
    }

    /**
     * Self time per layer (the span name up to its first '.'): each
     * span's duration minus the part its children cover.  Children
     * run inside their parent and one after another, so that part is
     * the sum of their durations.
     */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childTime[size_t(s.parent)] += s.end - s.start;
        std::map<std::string, double> self;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            self[s.name.substr(0, s.name.find('.'))] +=
                s.end - s.start - childTime[i];
        }
        return self;
    }

    /** Writes every span as one JSON document; false on I/O error. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"spans\": [\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "  {\"id\": %zu, \"name\": \"%s\", \"op\": \"%s\", "
                         "\"start_s\": %.9f, \"end_s\": %.9f, "
                         "\"parent\": %d}%s\n",
                         i, s.name.c_str(), s.op.c_str(), s.start, s.end,
                         s.parent, i + 1 < spans_.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    int current_ = -1;
};

/** Opens a span for the lifetime of the scope. */
class Scope
{
  public:
    Scope(Tracer &t, std::string name, std::string op = {})
        : t_(t), id_(t.open(std::move(name), std::move(op)))
    {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

} // namespace e2ebench
