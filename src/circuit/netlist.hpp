// Netlist data model for linear(ized) circuits.
//
// Supports the element set used by AWE-class analyses of linearized
// circuits: R (or direct conductance G), C, L, independent V/I sources and
// the four controlled sources.  Nonlinear devices enter this layer already
// linearized (e.g. BJTs as hybrid-pi small-signal stamps produced by
// src/circuits/opamp741).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace awe::circuit {

/// Node index; 0 is always ground.
using NodeId = std::size_t;
constexpr NodeId kGround = 0;

enum class ElementKind {
  kResistor,       ///< value in ohms
  kConductance,    ///< value in siemens (paper's symbolic g elements)
  kCapacitor,      ///< farads
  kInductor,       ///< henries
  kVoltageSource,  ///< volts (DC/transfer value)
  kCurrentSource,  ///< amperes
  kVccs,           ///< voltage-controlled current source, value = gm
  kVcvs,           ///< voltage-controlled voltage source, value = gain
  kCccs,           ///< current-controlled current source, value = gain, ctrl = V-source
  kCcvs,           ///< current-controlled voltage source, value = transresistance
  kMutual,         ///< mutual inductance: value = coupling k in (0, 1],
                   ///< ctrl_source/ctrl_source2 name the coupled inductors
};

const char* to_string(ElementKind kind);

struct Element {
  ElementKind kind{};
  std::string name;
  NodeId pos = kGround;       ///< positive terminal
  NodeId neg = kGround;       ///< negative terminal
  NodeId ctrl_pos = kGround;  ///< controlling nodes (VCCS/VCVS)
  NodeId ctrl_neg = kGround;
  std::string ctrl_source;    ///< controlling V-source name (CCCS/CCVS) or first L (K)
  std::string ctrl_source2;   ///< second coupled inductor name (K only)
  double value = 0.0;
};

class Netlist {
 public:
  Netlist();

  /// Intern a node name ("0" and "gnd" map to ground).
  NodeId node(std::string_view name);
  /// Look up without creating.
  std::optional<NodeId> find_node(std::string_view name) const;
  const std::string& node_name(NodeId id) const { return node_names_.at(id); }
  /// Number of non-ground nodes.
  std::size_t num_nodes() const { return node_names_.size() - 1; }

  // -- element builders ------------------------------------------------
  std::size_t add_resistor(std::string name, NodeId a, NodeId b, double ohms);
  std::size_t add_conductance(std::string name, NodeId a, NodeId b, double siemens);
  std::size_t add_capacitor(std::string name, NodeId a, NodeId b, double farads);
  std::size_t add_inductor(std::string name, NodeId a, NodeId b, double henries);
  std::size_t add_voltage_source(std::string name, NodeId pos, NodeId neg, double volts);
  std::size_t add_current_source(std::string name, NodeId pos, NodeId neg, double amps);
  std::size_t add_vccs(std::string name, NodeId pos, NodeId neg, NodeId cpos, NodeId cneg,
                       double gm);
  std::size_t add_vcvs(std::string name, NodeId pos, NodeId neg, NodeId cpos, NodeId cneg,
                       double gain);
  std::size_t add_cccs(std::string name, NodeId pos, NodeId neg, std::string ctrl_vsource,
                       double gain);
  std::size_t add_ccvs(std::string name, NodeId pos, NodeId neg, std::string ctrl_vsource,
                       double r);
  /// Mutual inductance between two named inductors, coupling 0 < k <= 1.
  std::size_t add_mutual(std::string name, std::string inductor1, std::string inductor2,
                         double k);

  const std::vector<Element>& elements() const { return elements_; }
  Element& element(std::size_t index) { return elements_.at(index); }
  const Element& element(std::size_t index) const { return elements_.at(index); }

  /// Index of element by (unique) name.
  std::optional<std::size_t> find_element(std::string_view name) const;

  /// Change an element's value (used when sweeping symbol values through
  /// the full-AWE baseline path).
  void set_value(std::size_t index, double value) { elements_.at(index).value = value; }
  void set_value(std::string_view name, double value);

  /// Drop every element past the first `count` (their names become free
  /// again).  Interned nodes are kept — node ids stay stable.  Enables the
  /// mutate-and-restore pattern in port_admittance_moments_inplace: append
  /// scratch elements, analyze, truncate back, with no O(circuit) netlist
  /// copy.
  void truncate_elements(std::size_t count);

  /// Count of energy-storage elements (C and L) — the paper reports this
  /// statistic for the 741 benchmark.
  std::size_t num_storage_elements() const;

  /// Sanity checks: every non-ground node reachable from ground through
  /// element terminals, no zero-valued R in parallel-only positions, etc.
  /// Returns a list of human-readable problems (empty = clean).
  std::vector<std::string> validate() const;

 private:
  std::size_t add(Element e);

  std::vector<Element> elements_;
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_ids_;
  std::unordered_map<std::string, std::size_t> element_ids_;
};

}  // namespace awe::circuit
