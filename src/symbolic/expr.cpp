#include "symbolic/expr.hpp"

#include <bit>
#include <cstring>
#include <functional>
#include <stdexcept>

namespace awe::symbolic {

std::size_t ExprGraph::KeyHash::operator()(const Key& k) const {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(k.value));
  std::memcpy(&bits, &k.value, sizeof(bits));
  std::size_t h = std::hash<std::uint64_t>{}(bits);
  h ^= std::hash<std::uint32_t>{}((static_cast<std::uint32_t>(k.op) << 24) ^ k.a) +
       0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= std::hash<std::uint32_t>{}(k.b) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

NodeId ExprGraph::intern(Key k) {
  const auto it = interned_.find(k);
  if (it != interned_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({k.op, k.value, k.a, k.b});
  interned_.emplace(k, id);
  return id;
}

NodeId ExprGraph::constant(double v) { return intern({OpCode::kConst, v, 0, 0}); }

NodeId ExprGraph::input(std::uint32_t index) {
  if (index >= input_count_) input_count_ = index + 1;
  return intern({OpCode::kInput, 0.0, index, 0});
}

NodeId ExprGraph::add(NodeId a, NodeId b) {
  const auto& na = nodes_[a];
  const auto& nb = nodes_[b];
  if (na.op == OpCode::kConst && nb.op == OpCode::kConst)
    return constant(na.value + nb.value);
  if (is_const(a, 0.0)) return b;
  if (is_const(b, 0.0)) return a;
  if (a > b) std::swap(a, b);  // canonical order for commutative op
  return intern({OpCode::kAdd, 0.0, a, b});
}

NodeId ExprGraph::sub(NodeId a, NodeId b) {
  const auto& na = nodes_[a];
  const auto& nb = nodes_[b];
  if (na.op == OpCode::kConst && nb.op == OpCode::kConst)
    return constant(na.value - nb.value);
  if (is_const(b, 0.0)) return a;
  if (is_const(a, 0.0)) return neg(b);
  if (a == b) return constant(0.0);
  return intern({OpCode::kSub, 0.0, a, b});
}

NodeId ExprGraph::mul(NodeId a, NodeId b) {
  const auto& na = nodes_[a];
  const auto& nb = nodes_[b];
  if (na.op == OpCode::kConst && nb.op == OpCode::kConst)
    return constant(na.value * nb.value);
  if (is_const(a, 1.0)) return b;
  if (is_const(b, 1.0)) return a;
  if (is_const(a, 0.0) || is_const(b, 0.0)) return constant(0.0);
  if (a > b) std::swap(a, b);
  return intern({OpCode::kMul, 0.0, a, b});
}

NodeId ExprGraph::div(NodeId a, NodeId b) {
  const auto& na = nodes_[a];
  const auto& nb = nodes_[b];
  if (nb.op == OpCode::kConst && nb.value == 0.0)
    throw std::domain_error("ExprGraph::div by constant zero");
  if (na.op == OpCode::kConst && nb.op == OpCode::kConst)
    return constant(na.value / nb.value);
  if (is_const(b, 1.0)) return a;
  if (a == b) return constant(1.0);
  return intern({OpCode::kDiv, 0.0, a, b});
}

NodeId ExprGraph::neg(NodeId a) {
  const auto& na = nodes_[a];
  if (na.op == OpCode::kConst) return constant(-na.value);
  if (na.op == OpCode::kNeg) return na.a;  // --x = x
  return intern({OpCode::kNeg, 0.0, a, 0});
}

NodeId ExprGraph::pow(NodeId a, std::uint32_t e) {
  if (e == 0) return constant(1.0);
  NodeId result = 0;
  bool have = false;
  NodeId base = a;
  while (e > 0) {
    if (e & 1u) {
      result = have ? mul(result, base) : base;
      have = true;
    }
    e >>= 1;
    if (e > 0) base = mul(base, base);
  }
  return result;
}

double ExprGraph::evaluate_node(NodeId id, std::span<const double> inputs) const {
  const ExprNode& n = nodes_[id];
  switch (n.op) {
    case OpCode::kConst:
      return n.value;
    case OpCode::kInput:
      return inputs[n.a];
    case OpCode::kAdd:
      return evaluate_node(n.a, inputs) + evaluate_node(n.b, inputs);
    case OpCode::kSub:
      return evaluate_node(n.a, inputs) - evaluate_node(n.b, inputs);
    case OpCode::kMul:
      return evaluate_node(n.a, inputs) * evaluate_node(n.b, inputs);
    case OpCode::kDiv:
      return evaluate_node(n.a, inputs) / evaluate_node(n.b, inputs);
    case OpCode::kNeg:
      return -evaluate_node(n.a, inputs);
  }
  throw std::logic_error("ExprGraph::evaluate_node: bad opcode");
}

}  // namespace awe::symbolic
