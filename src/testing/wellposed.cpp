#include "testing/wellposed.hpp"

#include <numeric>
#include <unordered_set>

#include "circuit/netlist.hpp"

namespace awe::testing {
namespace {

using circuit::Element;
using circuit::ElementKind;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;

/// Does a branch of this kind conduct at DC (fix the relative DC potential
/// of its terminals)?  C is open at DC; I/VCCS/CCCS inject current without
/// constraining voltage, so we conservatively do not count them.
bool conducts_dc(ElementKind k) {
  return k == ElementKind::kResistor || k == ElementKind::kConductance ||
         k == ElementKind::kInductor || k == ElementKind::kVoltageSource ||
         k == ElementKind::kVcvs || k == ElementKind::kCcvs;
}

/// Is a branch of this kind voltage-defined at DC (a rigid constraint with
/// an auxiliary branch current)?  Any cycle of such branches — once the
/// grounded port nodes are identified with ground — makes the aux-current
/// columns linearly dependent and the DC MNA matrix singular.
bool rigid_at_dc(ElementKind k) {
  return k == ElementKind::kInductor || k == ElementKind::kVoltageSource ||
         k == ElementKind::kVcvs || k == ElementKind::kCcvs;
}

bool symbolic_kind_supported(ElementKind k) {
  return k == ElementKind::kResistor || k == ElementKind::kConductance ||
         k == ElementKind::kCapacitor || k == ElementKind::kInductor ||
         k == ElementKind::kVccs;
}

class Graph {
 public:
  explicit Graph(std::size_t num_nodes) : adj_(num_nodes + 1) {}
  void edge(NodeId a, NodeId b) {
    if (a == b) return;
    adj_[a].push_back(b);
    adj_[b].push_back(a);
  }
  /// Nodes reachable from `start` (as a characteristic vector).
  std::vector<bool> reach(NodeId start) const {
    std::vector<bool> seen(adj_.size(), false);
    std::vector<NodeId> stack{start};
    seen[start] = true;
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      for (const NodeId m : adj_[n])
        if (!seen[m]) {
          seen[m] = true;
          stack.push_back(m);
        }
    }
    return seen;
  }

 private:
  std::vector<std::vector<NodeId>> adj_;
};

}  // namespace

// Faithful structural model of what MomentPartitioner +
// port_admittance_moments_inplace require of a deck:
//
//   1. The port set is the NON-AC-GROUND terminal *nodes* of every symbol
//      (incl. VCCS control pins), the input source terminals, and the
//      output node.  Nodes pinned to ground by a non-input ideal V source
//      are AC-ground rails, never ports.
//   2. The numeric partition drops the symbols, the input source and all
//      current sources; other V sources stay as 0 V shorts.
//   3. Port moments ground every port node through a 0 V source, so the
//      partition's DC matrix is singular iff (a) a node loses DC
//      conduction to the merged {ground ∪ ports} class, or (b) any
//      voltage-defined branch (L/V/E/H) closes a cycle once the port
//      nodes are merged with ground.
bool symbols_extractable(const circuit::ParsedDeck& deck,
                         const std::vector<std::string>& symbols, std::string* why) {
  const Netlist& nl = deck.netlist;
  const auto& elems = nl.elements();
  const auto fail = [&](std::string reason) {
    if (why) *why = std::move(reason);
    return false;
  };

  std::unordered_set<std::size_t> symbol_idx;
  std::unordered_set<std::string> symbol_names;
  for (const auto& name : symbols) {
    const auto idx = nl.find_element(name);
    if (!idx) return fail("symbol '" + name + "' not in the netlist");
    if (!symbolic_kind_supported(elems[*idx].kind))
      return fail("symbol '" + name + "' has an unsupported kind");
    symbol_idx.insert(*idx);
    symbol_names.insert(name);
  }

  if (deck.input_source.empty()) return fail("deck has no .input directive");
  const auto in_idx = nl.find_element(deck.input_source);
  if (!in_idx) return fail("input source '" + deck.input_source + "' missing");
  const Element& in = elems[*in_idx];
  if (in.kind != ElementKind::kVoltageSource && in.kind != ElementKind::kCurrentSource)
    return fail("input '" + deck.input_source + "' is not an independent source");
  if (symbol_idx.count(*in_idx)) return fail("input source cannot be symbolic");
  if (in.pos == in.neg) return fail("input source terminals collapsed onto one node");

  for (const Element& e : elems) {
    // The compiled path removes the input as the excitation port, so no
    // surviving F/H card may reference it as its control branch.
    if ((e.kind == ElementKind::kCccs || e.kind == ElementKind::kCcvs) &&
        e.ctrl_source == deck.input_source)
      return fail("element '" + e.name + "' senses the input source's current");
    // M = k sqrt(L1 L2) is not linear in a symbolic inductance.
    if (e.kind == ElementKind::kMutual &&
        (symbol_names.count(e.ctrl_source) || symbol_names.count(e.ctrl_source2)))
      return fail("element '" + e.name + "' couples a symbolic inductor");
  }

  if (deck.output_node.empty()) return fail("deck has no .output directive");
  const auto out_id = nl.find_node(deck.output_node);
  if (!out_id) return fail("output node '" + deck.output_node + "' missing");
  if (*out_id == kGround) return fail("output node is ground");

  // AC-ground rails: nodes pinned by a non-input ideal V source.
  std::vector<char> rail(nl.num_nodes() + 1, 0);
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (i == *in_idx || elems[i].kind != ElementKind::kVoltageSource) continue;
    if (elems[i].neg == kGround && elems[i].pos != kGround) rail[elems[i].pos] = 1;
    if (elems[i].pos == kGround && elems[i].neg != kGround) rail[elems[i].neg] = 1;
  }
  const auto ac_gnd = [&](NodeId n) { return n == kGround || rail[n]; };
  if (ac_gnd(*out_id)) return fail("output node is pinned to AC ground by an ideal source");
  if ((in.pos != kGround && rail[in.pos]) || (in.neg != kGround && rail[in.neg]))
    return fail("input source terminal is pinned by another ideal source");

  std::vector<char> is_port(nl.num_nodes() + 1, 0);
  const auto add_port = [&](NodeId n) {
    if (!ac_gnd(n)) is_port[n] = 1;
  };
  for (const std::size_t i : symbol_idx) {
    add_port(elems[i].pos);
    add_port(elems[i].neg);
    if (elems[i].kind == ElementKind::kVccs) {
      add_port(elems[i].ctrl_pos);
      add_port(elems[i].ctrl_neg);
    }
  }
  add_port(in.pos);
  add_port(in.neg);
  add_port(*out_id);

  // Union-find over nodes with every port pre-merged into ground; a rigid
  // branch whose endpoints already share a class closes a singular cycle.
  std::vector<NodeId> uf(nl.num_nodes() + 1);
  std::iota(uf.begin(), uf.end(), NodeId{0});
  const auto find = [&](NodeId n) {
    while (uf[n] != n) n = uf[n] = uf[uf[n]];
    return n;
  };
  for (NodeId n = 1; n <= nl.num_nodes(); ++n)
    if (is_port[n]) uf[find(n)] = find(kGround);

  Graph conduct(nl.num_nodes()), full_conduct(nl.num_nodes());
  for (NodeId n = 1; n <= nl.num_nodes(); ++n)
    if (is_port[n]) conduct.edge(kGround, n);

  // The numeric AWE and exact paths analyze the COMPLETE netlist, where no
  // port grounding exists: the whole deck must conduct to actual ground.
  for (const Element& e : elems)
    if (e.kind != ElementKind::kMutual && conducts_dc(e.kind))
      full_conduct.edge(e.pos, e.neg);
  {
    const auto grounded = full_conduct.reach(kGround);
    for (NodeId n = 1; n <= nl.num_nodes(); ++n)
      if (!grounded[n])
        return fail("node '" + nl.node_name(n) + "' has no DC path to ground");
  }

  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (symbol_idx.count(i) || i == *in_idx) continue;
    const Element& e = elems[i];
    if (e.kind == ElementKind::kMutual || e.kind == ElementKind::kCurrentSource)
      continue;
    if (conducts_dc(e.kind)) conduct.edge(e.pos, e.neg);
    if (rigid_at_dc(e.kind)) {
      const NodeId a = find(e.pos), b = find(e.neg);
      if (a == b)
        return fail("element '" + e.name +
                    "' closes a rigid DC loop through the grounded ports");
      uf[a] = b;
    }
  }

  const auto grounded = conduct.reach(kGround);
  for (NodeId n = 1; n <= nl.num_nodes(); ++n)
    if (!grounded[n])
      return fail("node '" + nl.node_name(n) +
                  "' loses its DC path once the symbols are extracted");
  return true;
}

}  // namespace awe::testing
