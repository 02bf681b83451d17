// Hash-consed expression DAG.
//
// AWEsymbolic "compiles" the symbolic moment expressions into a reduced
// set of operations (paper §1, §3).  The DAG is the intermediate
// representation: every arithmetic node is hash-consed so that common
// subexpressions across all moments (e.g. shared denominator powers,
// repeated symbol products) are stored and later evaluated exactly once.
// Algebraic identities that are safe over IEEE doubles when one operand is
// a literal constant (x+0, x*1, x*0, constant folding) are applied at
// construction.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace awe::symbolic {

using NodeId = std::uint32_t;

enum class OpCode : std::uint8_t {
  kConst,  ///< literal; `value` holds it
  kInput,  ///< runtime input (symbol value); `a` is the input index
  kAdd,
  kSub,
  kMul,
  kDiv,
  kNeg,
};

struct ExprNode {
  OpCode op{};
  double value = 0.0;  // kConst only
  NodeId a = 0;        // operand / input index
  NodeId b = 0;        // second operand
};

class ExprGraph {
 public:
  NodeId constant(double v);
  NodeId input(std::uint32_t index);
  NodeId add(NodeId a, NodeId b);
  NodeId sub(NodeId a, NodeId b);
  NodeId mul(NodeId a, NodeId b);
  NodeId div(NodeId a, NodeId b);
  NodeId neg(NodeId a);
  /// a^e by binary powering (e >= 0; a^0 is the constant 1).
  NodeId pow(NodeId a, std::uint32_t e);

  const ExprNode& node(NodeId id) const { return nodes_[id]; }
  std::size_t node_count() const { return nodes_.size(); }
  std::uint32_t input_count() const { return input_count_; }

  /// Reference (slow) evaluation of a single node — used in tests to
  /// validate the compiled program.
  double evaluate_node(NodeId id, std::span<const double> inputs) const;

 private:
  struct Key {
    OpCode op;
    double value;
    NodeId a, b;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };

  NodeId intern(Key k);
  bool is_const(NodeId id, double v) const {
    return nodes_[id].op == OpCode::kConst && nodes_[id].value == v;
  }

  std::vector<ExprNode> nodes_;
  std::unordered_map<Key, NodeId, KeyHash> interned_;
  std::uint32_t input_count_ = 0;
};

}  // namespace awe::symbolic
