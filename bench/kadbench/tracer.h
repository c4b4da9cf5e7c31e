// In-memory span and counter recorder for kadbench's traced runs.
//
// A span is one call into a layer's public function, timed from the
// benchmark's side: name, start, end, parent span, the snapshot or request
// it served, and the thread it ran on. Spans stay in memory and are written
// once, at exit, as Chrome trace-event JSON (loads in Perfetto). Counters are
// named sums the traced pipelines add to (pairs evaluated, edges built, ...);
// mark_exact() freezes a copy over the deterministic prefix of a run so two
// runs of the same seed can be compared exactly.
//
// A null Tracer* means "not traced": Span then does nothing, so the
// untraced code path carries no recording cost.
#ifndef KADBENCH_TRACER_H
#define KADBENCH_TRACER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace kadbench {

class Tracer {
public:
    struct Record {
        const char* name = nullptr;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::uint32_t id = 0;
        std::uint32_t parent = 0;  ///< 0 = none
        std::uint32_t thread = 0;
        std::uint64_t item = 0;    ///< snapshot or request index
    };

    /// Per span name: self time, call count and call durations.
    struct Layer {
        double busy_s = 0.0;
        std::uint64_t calls = 0;
        std::vector<double> durations_ms;
    };

    Tracer();

    /// Nanoseconds since this tracer was created.
    [[nodiscard]] std::int64_t now_ns() const;

    void add(const std::string& counter, double value);
    void max(const std::string& counter, double value);
    [[nodiscard]] std::map<std::string, double> counters() const;

    /// Copies the counters as they stand; see the file comment.
    void mark_exact();
    [[nodiscard]] std::map<std::string, double> exact() const;

    /// Self time per span name: a span's duration minus the time spans
    /// nested inside it on the same thread cover (work a span hands to pool
    /// threads is not subtracted: the caller waits or helps meanwhile).
    [[nodiscard]] std::map<std::string, Layer> layers() const;

    /// Wall time inside [begin_ns, end_ns) during which no span whose name
    /// does not start with "kadbench." was open on any thread.
    [[nodiscard]] double unattributed_s(std::int64_t begin_ns, std::int64_t end_ns) const;

    [[nodiscard]] std::size_t span_count() const;

    /// Writes every span as Chrome trace-event JSON. Returns false on I/O
    /// failure.
    bool write_chrome_json(const std::string& path) const;

private:
    friend class Span;

    std::uint32_t next_id();
    void push(const Record& record);

    const std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Record> records_;
    std::map<std::string, double> counters_;
    std::map<std::string, double> exact_;
    std::uint32_t last_id_ = 0;
};

/// RAII span. Nested spans on one thread get the enclosing span as parent;
/// a span opened in a pool task names its parent explicitly.
class Span {
public:
    static constexpr std::uint32_t kInherit = ~std::uint32_t{0};

    Span(Tracer* tracer, const char* name, std::uint64_t item = 0,
         std::uint32_t parent = kInherit);
    ~Span();

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    [[nodiscard]] std::uint32_t id() const noexcept { return record_.id; }

private:
    Tracer* tracer_;
    Tracer::Record record_;
};

}  // namespace kadbench

#endif  // KADBENCH_TRACER_H
