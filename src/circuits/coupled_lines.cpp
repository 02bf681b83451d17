#include "circuits/coupled_lines.hpp"

#include <stdexcept>
#include <string>

namespace awe::circuits {

using circuit::kGround;
using circuit::NodeId;

CoupledLinesCircuit make_coupled_lines(const CoupledLineValues& v) {
  if (v.segments == 0) throw std::invalid_argument("coupled lines: segments must be >= 1");
  CoupledLinesCircuit c;
  auto& nl = c.netlist;
  const std::size_t n = v.segments;
  const double r_seg = v.r_total / static_cast<double>(n);
  const double cg_seg = v.c_ground_total / static_cast<double>(n);
  const double cc_seg = v.c_couple_total / static_cast<double>(n);

  // Node naming: lX_k is node k (0..n) of line X; l1_end / l2_end alias
  // the far ends for readable output selection.
  auto node_of = [&](int line, std::size_t k) {
    if (k == n) return nl.node("l" + std::to_string(line) + "_end");
    return nl.node("l" + std::to_string(line) + "_" + std::to_string(k));
  };

  // Drivers: Thevenin source + resistance into node 0 of each line.
  const NodeId d1 = nl.node("drv1");
  const NodeId d2 = nl.node("drv2");
  nl.add_voltage_source(CoupledLinesCircuit::kInput, d1, kGround, 1.0);
  nl.add_resistor(CoupledLinesCircuit::kSymbolRdriver, d1, node_of(1, 0), v.r_driver);
  nl.add_voltage_source("vdrv2", d2, kGround, 0.0);  // quiet aggressor-side driver
  nl.add_resistor("rdrv2", d2, node_of(2, 0), v.r_driver);

  for (int line = 1; line <= 2; ++line) {
    const std::string lt = std::to_string(line);
    for (std::size_t k = 0; k < n; ++k) {
      nl.add_resistor("r" + lt + "_" + std::to_string(k), node_of(line, k),
                      node_of(line, k + 1), r_seg);
      nl.add_capacitor("cg" + lt + "_" + std::to_string(k + 1), node_of(line, k + 1),
                       kGround, cg_seg);
    }
  }
  // Line-to-line coupling capacitors along the length.
  for (std::size_t k = 1; k <= n; ++k)
    nl.add_capacitor("cc_" + std::to_string(k), node_of(1, k), node_of(2, k), cc_seg);

  // Loads: line 1 fixed, line 2's load is the second symbol.
  nl.add_capacitor("cload1", node_of(1, n), kGround, v.c_load);
  nl.add_capacitor(CoupledLinesCircuit::kSymbolCload, node_of(2, n), kGround, v.c_load);

  c.line1_out = node_of(1, n);
  c.line2_out = node_of(2, n);
  return c;
}

}  // namespace awe::circuits
