// Coupled RC transmission-line pair (paper §3.2 / Figure 8 benchmark).
//
// Two symmetric lines, each approximated with a lumped n-segment RC model
// (series resistance, capacitance to ground) with capacitive coupling
// between corresponding nodes along the full length.  Each line is driven
// through a linearized Thevenin equivalent (V source + driver resistance)
// and loaded purely capacitively.  The paper uses 1000 segments per line,
// treats the driver resistance and the load capacitance as symbols, and
// models the (non-monotonic) cross-talk with a second-order AWE form while
// first order suffices for the direct transmission.
#pragma once

#include <cstddef>

#include "circuit/netlist.hpp"

namespace awe::circuits {

struct CoupledLineValues {
  std::size_t segments = 1000;   ///< lumped segments per line
  double r_total = 1.0e3;        ///< total series resistance per line (ohm)
  double c_ground_total = 10e-12;///< total capacitance to ground per line (F)
  double c_couple_total = 5e-12; ///< total line-to-line coupling capacitance (F)
  double r_driver = 100.0;       ///< Thevenin driver resistance (ohm) — symbol
  double c_load = 1e-12;         ///< load capacitance (F) — symbol
};

struct CoupledLinesCircuit {
  circuit::Netlist netlist;
  circuit::NodeId line1_out = 0;  ///< far end of the driven line
  circuit::NodeId line2_out = 0;  ///< far end of the victim line (cross-talk)
  static constexpr const char* kInput = "vdrv1";
  static constexpr const char* kDirectOutput = "l1_end";
  static constexpr const char* kCrosstalkOutput = "l2_end";
  static constexpr const char* kSymbolRdriver = "rdrv1";
  static constexpr const char* kSymbolCload = "cload2";
};

/// Build the coupled pair.  Line 1 is driven (vdrv1 active); line 2's
/// driver is quiet (its Thevenin source is 0 and the paper's symbols are
/// line 1's driver resistance and line 2's load capacitance, the knobs of
/// the cross-talk timing model).
CoupledLinesCircuit make_coupled_lines(const CoupledLineValues& values = {});

}  // namespace awe::circuits
