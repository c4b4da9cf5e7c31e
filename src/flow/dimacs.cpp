#include "flow/dimacs.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace kadsim::flow {

void write_dimacs(const FlowNetwork& net, int source, int sink, std::ostream& out) {
    out << "c kadsim transformed connectivity graph\n";
    out << "p max " << net.vertex_count() << ' ' << net.arc_count() / 2 << '\n';
    out << "n " << source + 1 << " s\n";
    out << "n " << sink + 1 << " t\n";
    for (int i = 0; i < net.arc_count(); i += 2) {
        const int u = net.arc_to(i ^ 1);  // reverse arc points back to origin
        out << "a " << u + 1 << ' ' << net.arc_to(i) + 1 << ' '
            << net.original_cap(i) << '\n';
    }
}

DimacsProblem read_dimacs(std::istream& in) {
    DimacsProblem problem;
    bool have_problem_line = false;
    bool have_source = false;
    bool have_sink = false;
    std::string line;
    int declared_arcs = 0;
    int seen_arcs = 0;

    while (std::getline(in, line)) {
        if (line.empty()) continue;
        std::istringstream ls(line);
        char tag = 0;
        ls >> tag;
        switch (tag) {
            case 'c':
                break;
            case 'p': {
                if (have_problem_line) {
                    throw std::runtime_error("dimacs: second problem line: " + line);
                }
                std::string kind;
                int nodes = 0;
                ls >> kind >> nodes >> declared_arcs;
                if (!ls || kind != "max" || nodes < 0) {
                    throw std::runtime_error("dimacs: bad problem line: " + line);
                }
                problem.network = FlowNetwork(nodes);
                have_problem_line = true;
                break;
            }
            case 'n': {
                if (!have_problem_line) {
                    throw std::runtime_error("dimacs: node line before problem line: " +
                                             line);
                }
                int id = 0;
                char which = 0;
                ls >> id >> which;
                // The solvers index their per-vertex scratch by these ids.
                if (!ls || id < 1 || id > problem.network.vertex_count()) {
                    throw std::runtime_error("dimacs: bad node line: " + line);
                }
                if (which == 's') {
                    problem.source = id - 1;
                    have_source = true;
                } else if (which == 't') {
                    problem.sink = id - 1;
                    have_sink = true;
                } else {
                    throw std::runtime_error("dimacs: bad node designator: " + line);
                }
                if (have_source && have_sink && problem.source == problem.sink) {
                    throw std::runtime_error("dimacs: source equals sink: " + line);
                }
                break;
            }
            case 'a': {
                if (!have_problem_line) {
                    throw std::runtime_error("dimacs: arc before problem line");
                }
                int u = 0, v = 0, cap = 0;
                ls >> u >> v >> cap;
                if (!ls || u < 1 || v < 1 || u > problem.network.vertex_count() ||
                    v > problem.network.vertex_count() || cap < 0) {
                    throw std::runtime_error("dimacs: bad arc line: " + line);
                }
                problem.network.add_arc(u - 1, v - 1, cap);
                ++seen_arcs;
                break;
            }
            default:
                throw std::runtime_error("dimacs: unknown line tag: " + line);
        }
    }
    if (!have_problem_line || !have_source || !have_sink) {
        throw std::runtime_error("dimacs: missing problem/source/sink line");
    }
    if (declared_arcs != seen_arcs) {
        throw std::runtime_error("dimacs: arc count mismatch");
    }
    problem.network.finalize();
    return problem;
}

}  // namespace kadsim::flow
