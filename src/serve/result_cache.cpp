#include "serve/result_cache.h"

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#include "util/csv.h"
#include "util/sha1.h"

namespace kadsim::serve {

namespace {

/// One comma-terminated field off the front of `s` (the final field runs to
/// the end of the line instead). from_chars never allocates and never reads
/// past `s`, so a malformed field fails cleanly instead of consuming the
/// rest of the row.
template <typename T>
bool parse_field(std::string_view& s, T& value, bool last = false) {
    const char* const begin = s.data();
    const char* const end = begin + s.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{}) return false;
    if (last) return ptr == end;
    if (ptr == end || *ptr != ',') return false;
    s.remove_prefix(static_cast<std::size_t>(ptr - begin) + 1);
    return true;
}

}  // namespace

bool publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    bool ok = false;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return false;
        write(out);
        out.flush();
        ok = static_cast<bool>(out);
    }
    std::error_code ec;
    if (ok) std::filesystem::rename(tmp, path, ec);
    if (!ok || ec) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::string ResultCache::entry_path(const std::string& key) const {
    return root_ + "/" + util::to_hex(util::sha1(key)) + ".csv";
}

bool ResultCache::load(const std::string& key, core::ExperimentSeries& out) const {
    std::ifstream in(entry_path(key));
    if (!in) return false;
    std::string line;
    if (!std::getline(in, line) || line != "# " + key) return false;
    if (!std::getline(in, line)) return false;  // column header
    const std::size_t before = out.samples.size();
    while (std::getline(in, line)) {
        core::ResilienceSample sample;
        // Entries from before a column append fail here and re-run: the key
        // line still matches but rows lack the appended columns.
        if (!parse_sample_row(line, sample)) return false;
        out.samples.push_back(sample);
    }
    return out.samples.size() > before;
}

bool ResultCache::store(const std::string& key,
                        const core::ExperimentSeries& series) const {
    if (!util::ensure_directory(root_)) return false;
    return publish_file(entry_path(key), [&](std::ostream& out) {
        out << "# " << key << '\n';
        out << csv_header() << '\n';
        for (const auto& s : series.samples) out << format_sample_row(s) << '\n';
    });
}

const char* ResultCache::csv_header() {
    // The first nine columns predate the metric suite; their bytes are
    // pinned by the golden hashes in tests/test_fault_equivalence.cpp.
    // Metric and lookup columns are strictly appended.
    return "time_min,n,m,kappa_min,kappa_avg,scc,reciprocity,pairs,removed,"
           "lambda_min,lambda_avg,scc_frac,wcc_frac,articulation,bridges,"
           "deg_out_min,deg_in_min,kappa_gap,"
           "lookups,lookup_ok,lookup_hop_p50,lookup_hop_p99,lookup_lat_p50,"
           "lookup_lat_p99,probes,probe_ok,probe_hop_p50,probe_hop_p99";
}

std::string ResultCache::format_sample_row(const core::ResilienceSample& s) {
    std::ostringstream out;
    out << s.time_min << ',' << s.n << ',' << s.m << ',' << s.kappa_min << ','
        << s.kappa_avg << ',' << s.scc_count << ',' << s.reciprocity << ','
        << s.pairs_evaluated << ',' << s.removed_total << ',' << s.lambda_min
        << ',' << s.lambda_avg << ',' << s.scc_frac << ',' << s.wcc_frac << ','
        << s.articulation_points << ',' << s.bridges << ',' << s.out_degree_min
        << ',' << s.in_degree_min << ',' << s.kappa_degree_gap << ','
        << s.lookups_done << ',' << s.lookup_success_rate << ','
        << s.lookup_hop_p50 << ',' << s.lookup_hop_p99 << ','
        << s.lookup_latency_p50_ms << ',' << s.lookup_latency_p99_ms << ','
        << s.probes_done << ',' << s.probe_success_rate << ','
        << s.probe_hop_p50 << ',' << s.probe_hop_p99;
    return out.str();
}

bool ResultCache::parse_sample_row(std::string_view line,
                                   core::ResilienceSample& out) {
    return parse_field(line, out.time_min) && parse_field(line, out.n) &&
           parse_field(line, out.m) && parse_field(line, out.kappa_min) &&
           parse_field(line, out.kappa_avg) && parse_field(line, out.scc_count) &&
           parse_field(line, out.reciprocity) &&
           parse_field(line, out.pairs_evaluated) &&
           parse_field(line, out.removed_total) &&
           parse_field(line, out.lambda_min) && parse_field(line, out.lambda_avg) &&
           parse_field(line, out.scc_frac) && parse_field(line, out.wcc_frac) &&
           parse_field(line, out.articulation_points) &&
           parse_field(line, out.bridges) && parse_field(line, out.out_degree_min) &&
           parse_field(line, out.in_degree_min) &&
           parse_field(line, out.kappa_degree_gap) &&
           parse_field(line, out.lookups_done) &&
           parse_field(line, out.lookup_success_rate) &&
           parse_field(line, out.lookup_hop_p50) &&
           parse_field(line, out.lookup_hop_p99) &&
           parse_field(line, out.lookup_latency_p50_ms) &&
           parse_field(line, out.lookup_latency_p99_ms) &&
           parse_field(line, out.probes_done) &&
           parse_field(line, out.probe_success_rate) &&
           parse_field(line, out.probe_hop_p50) &&
           parse_field(line, out.probe_hop_p99, /*last=*/true);
}

}  // namespace kadsim::serve
