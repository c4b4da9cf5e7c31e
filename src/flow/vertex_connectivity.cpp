#include "flow/vertex_connectivity.h"

#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "util/assert.h"

namespace kadsim::flow {

int pair_vertex_connectivity(const graph::Digraph& g, int v, int w) {
    const FlowNetwork net = even_transform(g);
    FlowWorkspace workspace(net);
    return pair_vertex_connectivity(g, net, workspace, v, w);
}

int pair_vertex_connectivity(const graph::Digraph& g, const FlowNetwork& even_net,
                             FlowWorkspace& workspace, int v, int w) {
    KADSIM_ASSERT(v != w);
    KADSIM_ASSERT_MSG(!g.has_edge(v, w),
                      "vertex connectivity is defined for non-adjacent pairs");
    KADSIM_ASSERT(even_net.vertex_count() == 2 * g.vertex_count());
    KADSIM_ASSERT(&workspace.network() == &even_net);
    workspace.reset();
    Dinic dinic;
    return dinic.max_flow(workspace, out_vertex(v), in_vertex(w));
}

}  // namespace kadsim::flow
