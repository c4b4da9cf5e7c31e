// DIMACS max-flow format round-trip (the paper's HIPR interchange format).
#include <gtest/gtest.h>

#include <sstream>

#include "flow/dimacs.h"
#include "flow/dinic.h"
#include "flow/even_transform.h"
#include "flow/flow_workspace.h"
#include "graph/digraph.h"

namespace kadsim::flow {
namespace {

TEST(Dimacs, WriteProducesExpectedHeader) {
    FlowNetwork net(3);
    net.add_arc(0, 1, 4);
    net.add_arc(1, 2, 2);
    net.finalize();
    std::ostringstream out;
    write_dimacs(net, 0, 2, out);
    const std::string text = out.str();
    EXPECT_NE(text.find("p max 3 2"), std::string::npos);
    EXPECT_NE(text.find("n 1 s"), std::string::npos);
    EXPECT_NE(text.find("n 3 t"), std::string::npos);
    EXPECT_NE(text.find("a 1 2 4"), std::string::npos);
    EXPECT_NE(text.find("a 2 3 2"), std::string::npos);
}

TEST(Dimacs, RoundTripPreservesMaxFlow) {
    graph::Digraph g(6);
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 3);
    g.add_edge(2, 3);
    g.add_edge(3, 4);
    g.add_edge(4, 5);
    g.add_edge(0, 4);
    g.finalize();
    const FlowNetwork net = even_transform(g);

    std::stringstream buffer;
    write_dimacs(net, out_vertex(0), in_vertex(5), buffer);
    const DimacsProblem parsed = read_dimacs(buffer);

    Dinic solver;
    FlowWorkspace original_ws(net);
    const int expected = solver.max_flow(original_ws, out_vertex(0), in_vertex(5));
    Dinic solver2;
    FlowWorkspace parsed_ws(parsed.network);
    EXPECT_EQ(solver2.max_flow(parsed_ws, parsed.source, parsed.sink), expected);
}

TEST(Dimacs, ParsesCommentsAndBlankLines) {
    std::istringstream in(
        "c a comment\n"
        "\n"
        "p max 2 1\n"
        "n 1 s\n"
        "n 2 t\n"
        "a 1 2 9\n");
    const DimacsProblem p = read_dimacs(in);
    EXPECT_EQ(p.network.vertex_count(), 2);
    EXPECT_EQ(p.source, 0);
    EXPECT_EQ(p.sink, 1);
}

TEST(Dimacs, RejectsMalformedInput) {
    {
        std::istringstream in("p max 2 1\nn 1 s\na 1 2 5\n");  // missing sink
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    {
        std::istringstream in("p max 2 2\nn 1 s\nn 2 t\na 1 2 5\n");  // arc count
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    {
        std::istringstream in("p max 2 1\nn 1 s\nn 2 t\na 1 9 5\n");  // bad vertex
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    {
        std::istringstream in("a 1 2 5\n");  // arc before problem line
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    {
        std::istringstream in("x nonsense\n");
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    // Node ids the solvers cannot index, a degenerate pair, and a problem
    // line that would silently discard the arcs read before it.
    {
        std::istringstream in("n 1 s\np max 2 1\nn 2 t\na 1 2 5\n");  // no range yet
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    {
        std::istringstream in("p max 2 1\nn 9 s\nn 2 t\na 1 2 5\n");  // source
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    {
        std::istringstream in("p max 2 1\nn 1 s\nn 7 t\na 1 2 5\n");  // sink
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    {
        std::istringstream in("p max 2 1\nn 1 s\nn 1 t\na 1 2 5\n");  // s == t
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
    {
        std::istringstream in(
            "p max 3 2\nn 1 s\nn 3 t\na 1 2 5\na 2 3 5\np max 3 2\n");
        EXPECT_THROW((void)read_dimacs(in), std::runtime_error);
    }
}

}  // namespace
}  // namespace kadsim::flow
