// Independent reference for the interpreter bit tests: evaluate every node
// of an ExprGraph in id order.  Nodes are interned bottom-up, so ascending
// id is a topological order, and each node is one IEEE operation — the same
// operation the compiled program runs for it, but with no register
// allocation, no instruction stream and no lanes.  Files that include this
// build with -ffp-contract=off (tests/CMakeLists.txt), like src/, so no
// multiply-add is fused here either.
#pragma once

#include <span>
#include <vector>

#include "symbolic/expr.hpp"

namespace awe::testing {

/// Value of every node of `g` at `inputs`, indexed by node id.
inline std::vector<double> node_values(const symbolic::ExprGraph& g,
                                       std::span<const double> inputs) {
  using symbolic::OpCode;
  std::vector<double> v(g.node_count());
  for (symbolic::NodeId id = 0; id < g.node_count(); ++id) {
    const symbolic::ExprNode& n = g.node(id);
    switch (n.op) {
      case OpCode::kConst: v[id] = n.value; break;
      case OpCode::kInput: v[id] = inputs[n.a]; break;
      case OpCode::kAdd: v[id] = v[n.a] + v[n.b]; break;
      case OpCode::kSub: v[id] = v[n.a] - v[n.b]; break;
      case OpCode::kMul: v[id] = v[n.a] * v[n.b]; break;
      case OpCode::kDiv: v[id] = v[n.a] / v[n.b]; break;
      case OpCode::kNeg: v[id] = -v[n.a]; break;
    }
  }
  return v;
}

}  // namespace awe::testing
