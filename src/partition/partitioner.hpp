// Moment-level circuit partitioning (paper §2.4, after Alaybeyi, Bracken,
// Lee, Raghavan, Trihy & Rohrer, "Exploiting Partitioning in AWE").
//
// The circuit is split into a large numeric partition — reduced, purely
// numerically, to the Maclaurin moment expansion of its multiport
// admittance parameters Y(s) = Y_0 + Y_1 s + ... — and per-element
// symbolic partitions whose port representation is *finite* under MNA
// (exactly one term per element: conductances/capacitances in Y_0/Y_1,
// inductances through an impedance branch row).  Ports are the nodes
// touched by symbolic elements plus the preserved input and output ports.
//
// The composite moments follow from matching powers of s in
//   (Y_0 + Y_1 s + ...)(V_0 + V_1 s + ...) = I_0 :
//   Y_0 V_0 = I_0,    Y_0 V_k = - sum_{j=1..k} Y_j V_{k-j},
// solved symbolically over the small port system via the adjugate, keeping
// every intermediate a polynomial:  V_k = N_k / det(Y_0)^{k+1}.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "symbolic/poly_matrix.hpp"
#include "symbolic/rational.hpp"

namespace awe::part {

/// Knobs for the numeric-partition extraction.  The extraction is always
/// cell-based (see cells.hpp): the numeric partition is decomposed into
/// canonical cells, each extracted independently, summed, and Schur-
/// reduced back to the port space — so its result is a pure function of
/// the netlist whatever the block-cache state.
struct ExtractOptions {
  /// Persistent per-cell block store directory; empty disables the store
  /// (blocks are always recomputed).  Clean cells reload bit-identical
  /// blocks, so an incremental rebuild equals a cold build byte for byte.
  std::string block_dir;
  /// Cell split target in elements; 0 means kDefaultCellTargetElements.
  std::size_t cell_target = 0;
};

/// Drop the process-wide structural plan/block memo that accelerates
/// repeated block-store builds of the same circuit structure.  Purely an
/// optimization cache — clearing it never changes any result.  Test hook:
/// lets a test force the next build through the on-disk block store (the
/// memo serves clean cells from memory without re-probing the disk).
void clear_plan_cache();

/// Throws std::invalid_argument when a name appears twice in
/// `symbol_elements`: the repeat would stamp its element twice.
void require_distinct_symbols(const std::vector<std::string>& symbol_elements);

/// How an element's netlist value maps onto its internal symbol variable.
/// Resistors are represented internally by their conductance (the MNA
/// stamp must stay linear in the symbol), so their transform is 1/value.
struct SymbolSpec {
  std::size_t element_index = 0;
  std::string name;          ///< element name (used as the symbol name)
  bool reciprocal = false;   ///< internal symbol = 1 / element value
};

/// The result of a symbolic moment computation.
struct SymbolicMoments {
  std::vector<SymbolSpec> symbols;
  /// Numerators N_k (component picked at the output port), k = 0..count-1.
  std::vector<symbolic::Polynomial> numerators;
  /// Shared denominator base d = det(Y_0); moment k equals
  /// numerators[k] / d^{k+1}.
  symbolic::Polynomial det_y0;
  std::size_t port_count = 0;   ///< size of the port node set
  std::size_t global_dim = 0;   ///< ports + global auxiliary currents

  std::size_t count() const { return numerators.size(); }
  std::vector<std::string> symbol_names() const;

  /// Moment k as an explicit rational function (for closed forms/printing).
  symbolic::RationalFunction moment(std::size_t k) const;

  /// Map raw element values (one per symbol, in symbols[] order) to the
  /// internal symbol variables (applies reciprocal transforms).
  std::vector<double> to_symbol_values(std::span<const double> element_values) const;

  /// Evaluate all moments numerically at the given element values —
  /// the *uncompiled* reference path (term-by-term polynomial evaluation);
  /// the compiled path lives in awe::core::CompiledModel.
  std::vector<double> evaluate(std::span<const double> element_values) const;
};

class MomentPartitioner {
 public:
  /// `symbol_elements` are netlist element names to treat symbolically
  /// (kinds R, conductance, C, L, VCCS).  Throws std::invalid_argument on
  /// unknown/unsupported elements, unknown input source or ground output.
  MomentPartitioner(const circuit::Netlist& netlist,
                    std::vector<std::string> symbol_elements, std::string input_source,
                    circuit::NodeId output_node);

  /// Port node set (original netlist node ids, ordered).
  const std::vector<circuit::NodeId>& ports() const { return ports_; }

  /// Compute the first `count` composite moments symbolically.
  SymbolicMoments compute(std::size_t count, const ExtractOptions& opts = {}) const;

  /// Numeric-partition admittance moment blocks Y_0..Y_{count-1}
  /// (port_count x port_count, row-major), exposed for tests and the
  /// partitioning ablation bench.  Computed cell by cell (cells.hpp);
  /// with ExtractOptions::block_dir set, clean cells reload their cached
  /// blocks and only dirty cells are re-extracted.
  std::vector<std::vector<double>> numeric_port_moments(
      std::size_t count, const ExtractOptions& opts = {}) const;

 private:
  struct GlobalLayout {
    std::size_t num_ports = 0;
    std::size_t input_aux = SIZE_MAX;                 ///< aux row of a V input
    std::vector<std::size_t> inductor_aux;            ///< per symbolic L, aux row
    std::size_t dim = 0;
  };

  std::size_t port_index(circuit::NodeId node) const;
  /// True for ground and for nodes pinned to ground by an ideal V source
  /// (supply rails): they are AC ground in the small-signal analysis and
  /// must not become ports (a port source in parallel with the rail source
  /// would make the system singular).
  bool ac_grounded(circuit::NodeId node) const;

  const circuit::Netlist* netlist_;
  std::vector<SymbolSpec> symbols_;
  std::size_t input_element_ = 0;
  circuit::NodeId output_node_;
  std::vector<circuit::NodeId> ports_;  // sorted original node ids
  std::vector<bool> rail_nodes_;        // indexed by NodeId
};

}  // namespace awe::part
