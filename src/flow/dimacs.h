// DIMACS max-flow format (the paper's §5.2 pipeline converts transformed
// graphs "to the supported input format of HIPR (i.e., DIMACS)"). Provided
// for fidelity and interop with external solvers; the in-memory path is the
// default inside this library.
//
// Format:
//   c <comment>
//   p max <nodes> <arcs>
//   n <id> s        (source; ids are 1-based)
//   n <id> t        (sink)
//   a <from> <to> <capacity>
#ifndef KADSIM_FLOW_DIMACS_H
#define KADSIM_FLOW_DIMACS_H

#include <iosfwd>

#include "flow/flow_network.h"

namespace kadsim::flow {

struct DimacsProblem {
    FlowNetwork network{0};
    int source = 0;
    int sink = 0;
};

/// Writes `net` with the given source/sink as a DIMACS max-flow problem.
/// Only forward arcs (even indices) are emitted.
void write_dimacs(const FlowNetwork& net, int source, int sink, std::ostream& out);

/// Parses a DIMACS max-flow problem into a finalized (ready-to-solve)
/// network; throws std::runtime_error naming the offending line on
/// malformed input — including a node line before the problem line, node
/// ids outside 1..nodes, source = sink, and a second problem line.
[[nodiscard]] DimacsProblem read_dimacs(std::istream& in);

}  // namespace kadsim::flow

#endif  // KADSIM_FLOW_DIMACS_H
