// Multiport admittance moment computation for the moment-level
// partitioner's cells.
//
// The subnetwork's ports are grounded through zero-volt sources; exciting
// port j with a unit voltage and running the AWE moment recursion yields
// the Maclaurin blocks of the port admittance matrix:
//   Y_k(i, j) = (-1) * k-th moment of the port-i source branch current.
//
// The m port excitation columns share one SparseLu factor (factor once,
// solve many) and run serially: the factor dominates the extraction, the
// solves are a few percent of it (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/netlist.hpp"

namespace awe::part {

/// Y_0..Y_{count-1} (row-major port_nodes.size() x port_nodes.size()).
/// Independent V sources inside the subnetwork stay as shorts at value 0;
/// I sources are open.  Throws std::runtime_error when the grounded-port
/// DC matrix is singular (e.g. a port DC-shorted by an ideal inductor).
///
/// Works directly on `netlist` (zeroes the V sources and appends one
/// grounding source per port, restoring both on every exit path) instead
/// of deep-copying it, so repeated per-partition extraction allocates no
/// O(circuit) copy per call.  The netlist is returned to its original
/// element list and values even on throw; node interning is untouched
/// (ports must already be interned).
std::vector<std::vector<double>> port_admittance_moments_inplace(
    circuit::Netlist& netlist, const std::vector<circuit::NodeId>& port_nodes,
    std::size_t count);

}  // namespace awe::part
