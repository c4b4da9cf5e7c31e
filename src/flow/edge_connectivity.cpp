#include "flow/edge_connectivity.h"

#include <limits>

#include "util/assert.h"

namespace kadsim::flow {

FlowNetwork unit_capacity_network(const graph::Digraph& g) {
    KADSIM_ASSERT(g.edge_count() <= std::numeric_limits<int>::max() / 2);
    FlowNetwork net(g.vertex_count());
    net.reserve(static_cast<std::size_t>(g.edge_count()));
    for (int u = 0; u < g.vertex_count(); ++u) {
        for (const int v : g.out(u)) net.add_arc(u, v, 1);
    }
    net.finalize();
    return net;
}

}  // namespace kadsim::flow
