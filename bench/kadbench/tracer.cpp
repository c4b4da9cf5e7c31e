#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <unordered_map>

namespace kadbench {

namespace {

/// Small dense thread numbers for the trace viewer (0 = first thread seen).
std::uint32_t thread_number() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t number = next.fetch_add(1);
    return number;
}

/// Open spans of this thread, innermost last.
thread_local std::vector<std::uint32_t> t_open;

bool is_harness(const char* name) {
    return std::string_view(name).starts_with("kadbench.");
}

}  // namespace

// The constructing thread takes thread number 0, the "driver" lane.
Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) { (void)thread_number(); }

std::int64_t Tracer::now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void Tracer::add(const std::string& counter, double value) {
    std::lock_guard lock(mutex_);
    counters_[counter] += value;
}

void Tracer::max(const std::string& counter, double value) {
    std::lock_guard lock(mutex_);
    double& slot = counters_[counter];
    slot = std::max(slot, value);
}

std::map<std::string, double> Tracer::counters() const {
    std::lock_guard lock(mutex_);
    return counters_;
}

void Tracer::mark_exact() {
    std::lock_guard lock(mutex_);
    exact_ = counters_;
}

std::map<std::string, double> Tracer::exact() const {
    std::lock_guard lock(mutex_);
    return exact_;
}

std::uint32_t Tracer::next_id() {
    std::lock_guard lock(mutex_);
    return ++last_id_;
}

void Tracer::push(const Record& record) {
    std::lock_guard lock(mutex_);
    records_.push_back(record);
}

std::size_t Tracer::span_count() const {
    std::lock_guard lock(mutex_);
    return records_.size();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
    std::lock_guard lock(mutex_);
    // Children are found by time, not by the declared parent: a thread
    // waiting on the pool may run a queued task inside an open span, and
    // that task's time is not the waiting span's own.
    std::vector<const Record*> order;
    order.reserve(records_.size());
    for (const Record& r : records_) order.push_back(&r);
    std::sort(order.begin(), order.end(), [](const Record* a, const Record* b) {
        if (a->thread != b->thread) return a->thread < b->thread;
        if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
        return a->end_ns > b->end_ns;
    });
    std::unordered_map<std::uint32_t, std::int64_t> child_ns;
    std::vector<const Record*> open;
    for (const Record* r : order) {
        while (!open.empty() && (open.back()->thread != r->thread ||
                                 open.back()->end_ns <= r->start_ns)) {
            open.pop_back();
        }
        if (!open.empty()) child_ns[open.back()->id] += r->end_ns - r->start_ns;
        open.push_back(r);
    }
    std::map<std::string, Layer> out;
    for (const Record& r : records_) {
        Layer& layer = out[r.name];
        const std::int64_t duration = r.end_ns - r.start_ns;
        const auto children = child_ns.find(r.id);
        const std::int64_t self =
            duration - (children == child_ns.end() ? 0 : children->second);
        layer.busy_s += static_cast<double>(self) * 1e-9;
        ++layer.calls;
        layer.durations_ms.push_back(static_cast<double>(duration) * 1e-6);
    }
    return out;
}

double Tracer::unattributed_s(std::int64_t begin_ns, std::int64_t end_ns) const {
    std::vector<std::pair<std::int64_t, std::int64_t>> spans;
    {
        std::lock_guard lock(mutex_);
        for (const Record& r : records_) {
            if (is_harness(r.name)) continue;
            const std::int64_t lo = std::max(r.start_ns, begin_ns);
            const std::int64_t hi = std::min(r.end_ns, end_ns);
            if (lo < hi) spans.emplace_back(lo, hi);
        }
    }
    std::sort(spans.begin(), spans.end());
    std::int64_t covered = 0;
    std::int64_t reach = begin_ns;
    for (const auto& [lo, hi] : spans) {
        if (hi <= reach) continue;
        covered += hi - std::max(lo, reach);
        reach = hi;
    }
    return static_cast<double>(end_ns - begin_ns - covered) * 1e-9;
}

bool Tracer::write_chrome_json(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    std::lock_guard lock(mutex_);
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    std::uint32_t threads = 0;
    for (const Record& r : records_) threads = std::max(threads, r.thread + 1);
    bool first = true;
    for (std::uint32_t t = 0; t < threads; ++t) {
        out << (first ? "" : ",\n") << R"({"ph":"M","pid":1,"tid":)" << t
            << R"(,"name":"thread_name","args":{"name":")"
            << (t == 0 ? "driver" : "thread-" + std::to_string(t)) << "\"}}";
        first = false;
    }
    for (const Record& r : records_) {
        out << (first ? "" : ",\n") << R"({"ph":"X","pid":1,"tid":)" << r.thread
            << R"(,"name":")" << r.name << R"(","ts":)"
            << static_cast<double>(r.start_ns) * 1e-3
            << R"(,"dur":)" << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
            << R"(,"args":{"id":)" << r.id << R"(,"parent":)" << r.parent
            << R"(,"item":)" << r.item << "}}";
        first = false;
    }
    out << "\n]}\n";
    out.flush();
    return static_cast<bool>(out);
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t item, std::uint32_t parent)
    : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    record_.name = name;
    record_.item = item;
    record_.thread = thread_number();
    record_.id = tracer_->next_id();
    record_.parent = parent != kInherit ? parent : (t_open.empty() ? 0 : t_open.back());
    t_open.push_back(record_.id);
    record_.start_ns = tracer_->now_ns();
}

Span::~Span() {
    if (tracer_ == nullptr) return;
    record_.end_ns = tracer_->now_ns();
    t_open.pop_back();
    tracer_->push(record_);
}

}  // namespace kadbench
