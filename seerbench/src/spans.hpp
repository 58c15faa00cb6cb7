/**
 * @file
 * In-memory span log for the traced run.
 *
 * A span is a timed call into one layer, recorded from the benchmark's
 * own code around the call: name, start, end, parent span and the id
 * of the line it served. Spans stay in memory while the replay runs
 * and are written out once it has ended, so the trace costs two clock
 * reads and one vector append per span and no I/O while measuring.
 */

#ifndef SEERBENCH_SPANS_HPP
#define SEERBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace seerbench {

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-name totals over a span log. */
struct SpanTotals
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0; ///< duration minus the children's
};

class SpanLog
{
  public:
    static constexpr std::int32_t kNoParent = -1;

    explicit SpanLog(std::size_t reserve) { spans.reserve(reserve); }

    /** Open a span now; returns its handle. */
    std::int32_t
    open(std::uint16_t name, std::uint32_t line,
         std::int32_t parent = kNoParent)
    {
        spans.push_back({nowNs(), 0, line, parent, name});
        return static_cast<std::int32_t>(spans.size() - 1);
    }

    void close(std::int32_t span) { spans[span].end = nowNs(); }

    /** Interned span name. */
    std::uint16_t
    name(const std::string &text)
    {
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] == text)
                return static_cast<std::uint16_t>(i);
        }
        names.push_back(text);
        return static_cast<std::uint16_t>(names.size() - 1);
    }

    /** Count, total and self time per span name. */
    std::map<std::string, SpanTotals>
    totals() const
    {
        std::vector<std::int64_t> child(spans.size(), 0);
        for (const Span &s : spans) {
            if (s.parent != kNoParent)
                child[s.parent] += s.end - s.start;
        }
        std::map<std::string, SpanTotals> out;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            SpanTotals &t = out[names[spans[i].name]];
            std::int64_t duration = spans[i].end - spans[i].start;
            ++t.count;
            t.totalNs += duration;
            t.selfNs += duration - child[i];
        }
        return out;
    }

    /** Names interned so far. */
    const std::vector<std::string> &spanNames() const { return names; }

    /** Per-line total duration of the spans called `text`. */
    std::vector<std::int64_t>
    perLine(const std::string &text, std::size_t lines) const
    {
        std::vector<std::int64_t> out(lines, 0);
        for (const Span &s : spans) {
            if (names[s.name] == text && s.line < lines)
                out[s.line] += s.end - s.start;
        }
        return out;
    }

    /**
     * Write every span as tab-separated
     * `id parent line name start_ns end_ns`, starts relative to the
     * first span. Returns false when the file cannot be written.
     */
    bool
    write(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            return false;
        std::int64_t origin = spans.empty() ? 0 : spans.front().start;
        std::fprintf(out, "id\tparent\tline\tname\tstart_ns\tend_ns\n");
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::fprintf(out, "%zu\t%d\t%u\t%s\t%lld\t%lld\n", i,
                         s.parent, s.line, names[s.name].c_str(),
                         static_cast<long long>(s.start - origin),
                         static_cast<long long>(s.end - origin));
        }
        return std::fclose(out) == 0;
    }

  private:
    struct Span
    {
        std::int64_t start;
        std::int64_t end;
        std::uint32_t line;
        std::int32_t parent;
        std::uint16_t name;
    };

    std::vector<Span> spans;
    std::vector<std::string> names;
};

} // namespace seerbench

#endif // SEERBENCH_SPANS_HPP
