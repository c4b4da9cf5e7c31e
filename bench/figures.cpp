// The paper's parameter sweeps (Figures 2–9 and 11–14, §5.5–§5.8), two
// design ablations and the §6 extension, as one table of FigureSpecs run
// through bench::run_figure.
//
//   figures              runs every entry in table order
//   figures <id>...      runs the named entries in the given order
//
// Each id writes bench_out/<id>.csv and bench_out/BENCH_<id>.json. An
// unknown id exits 2 before anything runs; a figure that fails exits 1.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"

namespace {

using namespace kadsim;
using Runs = std::vector<bench::SeriesRun>;

/// Simulations A–H: bucket size k over the paper's {5, 10, 20, 30}.
template <class Sim>
Runs k_sweep(Sim sim) {
    Runs runs;
    for (const int k : {5, 10, 20, 30}) {
        runs.push_back({"k=" + std::to_string(k), sim(k), {}, 0.0});
    }
    return runs;
}

/// Simulation I: staleness limit s over {1, 5} at one churn rate.
Runs s_sweep(const core::PaperScenarios& reg, scen::ChurnSpec churn) {
    Runs runs;
    for (const int s : {1, 5}) {
        runs.push_back({"s=" + std::to_string(s), reg.sim_i(s, churn), {}, 0.0});
    }
    return runs;
}

/// Simulations J–L: message loss over {low, medium, high} at one s.
template <class Sim>
Runs loss_sweep(Sim sim) {
    Runs runs;
    for (const auto level :
         {net::LossLevel::kLow, net::LossLevel::kMedium, net::LossLevel::kHigh}) {
        runs.push_back({"l=" + std::string(net::to_string(level)), sim(level), {}, 0.0});
    }
    return runs;
}

/// A registry config with one KademliaConfig field changed. The name suffix
/// is part of the cache key, which does not cover every field (γ =
/// advertise_per_refresh is not in it).
template <class Field>
bench::SeriesRun variant(std::string label, core::ExperimentConfig cfg,
                         const std::string& suffix, Field kad::KademliaConfig::*field,
                         Field value) {
    cfg.scenario.name += suffix;
    cfg.scenario.kad.*field = value;
    return {std::move(label), std::move(cfg), {}, 0.0};
}

std::vector<bench::FigureSpec> figure_table(const core::PaperScenarios& reg) {
    using kad::KademliaConfig;
    using net::LossLevel;
    Runs boost_runs;
    for (const int gamma : {0, 1, 2, 4}) {
        const std::string g = "gamma=" + std::to_string(gamma);
        boost_runs.push_back(variant(g, reg.sim_f(5), "," + g,
                                     &KademliaConfig::advertise_per_refresh, gamma));
    }
    return {
        {.id = "fig02",
         .paper_ref = "Figure 2 (Simulation A)",
         .description = "size 250, churn 0/1 (one departure per minute from t=120), no "
                        "data traffic, k swept over {5,10,20,30}",
         .expectation = "after setup, connectivity ~ k for k in {20,30}; k=5 starts at 0 "
                        "and only becomes connected once departures free bucket slots; "
                        "during the churn phase the minimum connectivity first RISES "
                        "above k, then drops as the network drains",
         .runs = k_sweep([&](int k) { return reg.sim_a(k); })},
        {.id = "fig03",
         .paper_ref = "Figure 3 (Simulation B)",
         .description = "large network, churn 0/1, no data traffic, k swept over "
                        "{5,10,20,30}",
         .expectation = "setup problems grow with network size: k=5 AND k=10 start with "
                        "minimum connectivity 0 (a handful of nodes unknown to almost "
                        "everyone); stabilization repairs k=10; churn then lifts the "
                        "minimum above k until the network drains",
         .runs = k_sweep([&](int k) { return reg.sim_b(k); })},
        {.id = "fig04",
         .paper_ref = "Figure 4 (Simulation C)",
         .description = "size 250, churn 0/1, data traffic (10 lookups + 1 dissemination "
                        "per node-minute), k swept",
         .expectation = "same shape as Simulation A but stronger and earlier: traffic "
                        "speeds up stabilization, the churn-phase rise of the minimum "
                        "connectivity is more pronounced, and near the end the tiny "
                        "remaining network becomes fully connected for every k except 5",
         .runs = k_sweep([&](int k) { return reg.sim_c(k); })},
        {.id = "fig05",
         .paper_ref = "Figure 5 (Simulation D)",
         .description = "large network, churn 0/1, data traffic, k swept",
         .expectation = "traffic resolves the large-network setup problem for ALL k "
                        "during stabilization (connectivity ~ k); churn then lifts the "
                        "minimum above k until the drain",
         .runs = k_sweep([&](int k) { return reg.sim_d(k); })},
        {.id = "fig06",
         .paper_ref = "Figure 6 (Simulation E)",
         .description = "size 250, churn 1/1 (one join + one departure per minute from "
                        "t=120), data traffic (10 lookups + 1 dissemination per "
                        "node-minute), k swept",
         .expectation = "average connectivity benefits from churn, but the minimum does "
                        "not: for larger k it oscillates around k, for k=5 it drops "
                        "significantly, sometimes to 0",
         .runs = k_sweep([&](int k) { return reg.sim_e(k); })},
        {.id = "fig07",
         .paper_ref = "Figure 7 (Simulation F)",
         .description = "large network, churn 1/1, data traffic, k swept",
         .expectation = "minimum connectivity oscillates around k for k >= 10; for k=5 it "
                        "stays at (or keeps collapsing to) 0 through almost the whole "
                        "churn phase — the large network never absorbs small-bucket "
                        "joiners",
         .runs = k_sweep([&](int k) { return reg.sim_f(k); })},
        {.id = "fig08",
         .paper_ref = "Figure 8 (Simulation G)",
         .description = "size 250, churn 10/10, data traffic, k swept",
         .expectation = "stronger churn: average connectivity rises faster, but the "
                        "minimum drops for all k and its oscillation widens — k=5 is now "
                        "almost always 0 even in the small network (Table 2: means drop, "
                        "RV grows)",
         .runs = k_sweep([&](int k) { return reg.sim_g(k); })},
        {.id = "fig09",
         .paper_ref = "Figure 9 (Simulation H)",
         .description = "large network, churn 10/10, data traffic, k swept",
         .expectation = "the harshest bucket-size sweep: minimum connectivity drops below "
                        "k for every k, with large relative variance; k=5 pinned at 0 "
                        "(Table 2, size 2500: mean 0.00)",
         .runs = k_sweep([&](int k) { return reg.sim_h(k); })},
        {.id = "fig11a",
         .paper_ref = "Figure 11a (Simulation I, churn 1/1)",
         .description = "large network, k=20, no message loss, s in {1,5}, churn 1/1",
         .expectation = "with churn 1/1 there is no significant difference between the "
                        "two staleness limits",
         .runs = s_sweep(reg, scen::ChurnSpec{1, 1})},
        {.id = "fig11b",
         .paper_ref = "Figure 11b (Simulation I, churn 10/10)",
         .description = "large network, k=20, no message loss, s in {1,5}, churn 10/10",
         .expectation = "with churn 10/10 the AVERAGE connectivity for s=5 drops below "
                        "s=1 as soon as churn begins (stale entries block bucket slots), "
                        "while the MINIMUM connectivity is unaffected by s",
         .runs = s_sweep(reg, scen::ChurnSpec{10, 10})},
        {.id = "fig12a",
         .paper_ref = "Figure 12a (Simulation J, s=1)",
         .description = "large network, k=20, no churn, data traffic, message loss swept "
                        "over {low, medium, high}",
         .expectation = "message loss INCREASES connectivity: for s=1 the minimum "
                        "connectivity climbs far above k=20 after setup, and higher loss "
                        "gives higher connectivity",
         .runs = loss_sweep([&](LossLevel l) { return reg.sim_j(l, 1); })},
        {.id = "fig12b",
         .paper_ref = "Figure 12b (Simulation J, s=5)",
         .description = "large network, k=20, no churn, data traffic, message loss swept "
                        "over {low, medium, high}",
         .expectation = "s=5 damps the effect: connectivity rises far slower and settles "
                        "lower; for low loss the minimum stays just above k=20",
         .runs = loss_sweep([&](LossLevel l) { return reg.sim_j(l, 5); })},
        {.id = "fig13a",
         .paper_ref = "Figure 13a (Simulation K, s=1)",
         .description = "large network, k=20, churn 1/1, data traffic, loss swept",
         .expectation = "churn visibly reduces the positive effect of loss: the loss "
                        "levels still order the minimum connectivity, but all levels sit "
                        "lower than without churn, with occasional deep drops from nodes "
                        "that fail to bootstrap",
         .runs = loss_sweep([&](LossLevel l) { return reg.sim_k(l, 1); })},
        {.id = "fig13b",
         .paper_ref = "Figure 13b (Simulation K, s=5)",
         .description = "large network, k=20, churn 1/1, data traffic, loss swept",
         .expectation = "combined damping (s=5) + churn limits the minimum connectivity "
                        "to about k for all loss levels, with drops below k and down to 0",
         .runs = loss_sweep([&](LossLevel l) { return reg.sim_k(l, 5); })},
        {.id = "fig14a",
         .paper_ref = "Figure 14a (Simulation L, s=1)",
         .description = "large network, k=20, churn 10/10, data traffic, loss swept",
         .expectation = "the strong churn counters the positive loss effect even on the "
                        "AVERAGE connectivity; bootstrap-failure drops in the minimum "
                        "become frequent",
         .runs = loss_sweep([&](LossLevel l) { return reg.sim_l(l, 1); })},
        {.id = "fig14b",
         .paper_ref = "Figure 14b (Simulation L, s=5)",
         .description = "large network, k=20, churn 10/10, data traffic, loss swept",
         .expectation = "with the added damping of s=5 the minimum connectivity stays "
                        "below k at all times during the churn phase",
         .runs = loss_sweep([&](LossLevel l) { return reg.sim_l(l, 5); })},
        // Drop-when-full (the dynamics the paper's results exhibit) vs. the
        // original Maymounkov–Mazières ping-and-evict with a replacement
        // slot. The paper's churn-phase connectivity gains come from freed
        // bucket slots; ping-evict frees them more aggressively, so it shifts
        // the curves.
        {.id = "ablation_replacement",
         .paper_ref = "Ablation A2 (bucket insertion policy)",
         .description = "Simulation E (small network, churn 1/1, traffic, k=20): drop-new "
                        "vs ping-evict bucket policy",
         .expectation = "design-choice probe (not in the paper): ping-evict keeps buckets "
                        "fresher under churn, raising average connectivity relative to "
                        "drop-new; the k-tracking of the minimum connectivity persists "
                        "either way",
         .runs = {variant("drop-new", reg.sim_e(20), ",policy=drop",
                          &KademliaConfig::bucket_policy, kad::BucketPolicy::kDropNew),
                  variant("ping-evict", reg.sim_e(20), ",policy=ping-evict",
                          &KademliaConfig::bucket_policy, kad::BucketPolicy::kPingEvict)}},
        // The paper's simulator refreshes EVERY bucket hourly ("a node randomly
        // generates an id from the id range of each k-bucket", §5.3); the
        // original protocol refreshes only buckets without lookup activity in
        // the past hour. The difference matters most in the no-traffic
        // scenarios, where refresh is the only maintenance traffic.
        {.id = "ablation_refresh",
         .paper_ref = "Ablation A3 (bucket refresh policy)",
         .description = "Simulation A (small network, churn 0/1, NO data traffic, k=20): "
                        "refresh all buckets hourly (paper) vs only-stale buckets "
                        "(original protocol)",
         .expectation = "design-choice probe (not in the paper): refreshing all buckets "
                        "generates more maintenance lookups, keeping tables fuller during "
                        "the no-traffic churn phase; stale-only refresh reacts more slowly",
         .runs = {variant("refresh-all", reg.sim_a(20), ",refresh=all",
                          &KademliaConfig::refresh_policy,
                          kad::RefreshPolicy::kAllBuckets),
                  variant("stale-only", reg.sim_a(20), ",refresh=stale-only",
                          &KademliaConfig::refresh_policy,
                          kad::RefreshPolicy::kStaleOnly)}},
        // The paper's §6 future work: "a parameter to control its connectivity
        // independently of the bucket size". γ = advertise_per_refresh
        // self-lookups per hour, each re-announcing the node to its closest
        // neighbours, which lifts the in-degree floor of exactly the nodes
        // that pin κ_min. Evaluated on the paper's hardest small-k case,
        // Simulation F with k=5 (paper: churn-phase mean κ_min 0.00).
        {.id = "ext_connectivity_boost",
         .paper_ref = "Extension (paper §6 future work)",
         .description = "Simulation F (large network, churn 1/1, k=5) with the "
                        "connectivity boost parameter gamma = self-advertisements per "
                        "refresh cycle",
         .expectation = "gamma=0 reproduces the paper's k=5 collapse (kappa_min ~ 0); "
                        "raising gamma repairs churn erosion and nudges the minimum "
                        "upward — but only toward the degree ceiling that k itself "
                        "imposes (each node can occupy at most ~sum min(k, |bucket "
                        "range|) other routing tables). The experiment quantifies how "
                        "much an announcement knob can and cannot buy: the binding "
                        "parameter remains k, confirming the paper's conclusion",
         .runs = std::move(boost_runs)},
    };
}

}  // namespace

int main(int argc, char** argv) {
    auto table = figure_table(core::PaperScenarios(core::ReproScale::from_env()));

    std::vector<bench::FigureSpec*> selected;
    if (argc == 1) {
        for (auto& spec : table) selected.push_back(&spec);
    }
    for (int i = 1; i < argc; ++i) {
        const std::string id = argv[i];
        const auto it = std::find_if(table.begin(), table.end(),
                                     [&id](const auto& spec) { return spec.id == id; });
        if (it == table.end()) {
            std::string known;
            for (const auto& spec : table) known += (known.empty() ? "" : ", ") + spec.id;
            std::fprintf(stderr, "error: unknown figure '%s' (known: %s)\n", id.c_str(),
                         known.c_str());
            return 2;
        }
        selected.push_back(&*it);
    }

    for (auto* spec : selected) {
        try {
            if (const int rc = bench::run_figure(*spec); rc != 0) return rc;
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s: %s\n", spec->id.c_str(), e.what());
            return 1;
        }
    }
    return 0;
}
