// Content-addressed on-disk result cache, shared across processes.
//
// Promoted from the per-process CSV cache in bench/common.cpp: entries are
// keyed by an arbitrary string (the bench layer keys by the full experiment
// config; the resilience daemon keys by snapshot content hash + analyzer
// options), stored one file per key under <root>/<sha1(key)>.csv, and carry
// the key itself on the first line so a hash collision or a key-scheme
// change can never silently serve the wrong series. The row format is the
// 28-column ResilienceSample serialization whose first columns are pinned by
// the golden hashes in tests/test_fault_equivalence.cpp — existing bench
// caches stay byte-valid.
//
// Stores are atomic (write to a sibling temp file, then rename): concurrent
// daemon workers, bench runners sharded over machines, and a reader racing a
// writer all see either the complete entry or none of it — never a torn
// file. All I/O failures are reported (load: miss; store: false), never
// swallowed.
#ifndef KADSIM_SERVE_RESULT_CACHE_H
#define KADSIM_SERVE_RESULT_CACHE_H

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/experiment.h"

namespace kadsim::serve {

/// Atomically publishes the file at `path`: `write` streams the contents
/// into a sibling temp file `<path>.tmp.<pid>` (same directory, so the
/// rename cannot cross filesystems), which is flushed, checked and renamed
/// over `path`. Returns false on any I/O failure, after removing the temp
/// file: readers see the complete file or none of it. The parent directory
/// must exist.
bool publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

class ResultCache {
public:
    /// Binds to `root` (created on first store, not here).
    explicit ResultCache(std::string root) : root_(std::move(root)) {}

    [[nodiscard]] const std::string& root() const noexcept { return root_; }

    /// On-disk path of the entry for `key`.
    [[nodiscard]] std::string entry_path(const std::string& key) const;

    /// Loads the series stored under `key` into `out` (appending to
    /// out.samples). Returns false — a cache miss — when the entry is
    /// absent, carries a different key, or any row fails to parse (rows
    /// written before a column append fail parse_sample_row and re-run).
    [[nodiscard]] bool load(const std::string& key,
                            core::ExperimentSeries& out) const;

    /// Atomically stores `series` under `key`. Returns false on any I/O
    /// failure (unwritable root, full disk); a failed store never leaves a
    /// partial entry behind.
    bool store(const std::string& key, const core::ExperimentSeries& series) const;

    // --- row serialization (shared with the bench cache probe) -----------

    /// The cache-CSV column header (no trailing newline).
    [[nodiscard]] static const char* csv_header();

    /// One data row of the 28-column serialization, without the trailing
    /// newline. Default ostream formatting — the bytes the golden hashes pin.
    [[nodiscard]] static std::string format_sample_row(
        const core::ResilienceSample& s);

    /// Parses one data row; returns false on any malformed, short, or
    /// over-long row. std::from_chars end to end — allocation-free.
    [[nodiscard]] static bool parse_sample_row(std::string_view line,
                                               core::ResilienceSample& out);

private:
    std::string root_;
};

}  // namespace kadsim::serve

#endif  // KADSIM_SERVE_RESULT_CACHE_H
