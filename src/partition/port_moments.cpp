#include "partition/port_moments.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "circuit/mna.hpp"
#include "health/failpoints.hpp"
#include "health/status.hpp"
#include "linalg/sparse_lu.hpp"

namespace awe::part {

namespace {

/// Restores the netlist on scope exit: truncates appended port sources and
/// puts the zeroed V-source values back (exception-safe, so a singular
/// factor throw cannot leak scratch elements into the caller's netlist).
class NetlistRestorer {
 public:
  explicit NetlistRestorer(circuit::Netlist& netlist)
      : netlist_(netlist), element_count_(netlist.elements().size()) {
    for (std::size_t i = 0; i < element_count_; ++i)
      if (netlist.elements()[i].kind == circuit::ElementKind::kVoltageSource) {
        saved_.emplace_back(i, netlist.elements()[i].value);
        netlist.set_value(i, 0.0);
      }
  }
  ~NetlistRestorer() {
    netlist_.truncate_elements(element_count_);
    for (const auto& [idx, value] : saved_) netlist_.set_value(idx, value);
  }
  NetlistRestorer(const NetlistRestorer&) = delete;
  NetlistRestorer& operator=(const NetlistRestorer&) = delete;

 private:
  circuit::Netlist& netlist_;
  std::size_t element_count_;
  std::vector<std::pair<std::size_t, double>> saved_;
};

}  // namespace

std::vector<std::vector<double>> port_admittance_moments_inplace(
    circuit::Netlist& netlist, const std::vector<circuit::NodeId>& port_nodes,
    std::size_t count) {
  const std::size_t m = port_nodes.size();
  if (m == 0) throw std::invalid_argument("port_admittance_moments: no ports");
  for (const auto p : port_nodes)
    if (p == circuit::kGround)
      throw std::invalid_argument("port_admittance_moments: ground cannot be a port");

  // Zero internal V sources (shorts) and attach one grounding source per
  // port; the restorer undoes both when we leave.
  NetlistRestorer restore(netlist);
  std::vector<std::size_t> port_source(m);
  for (std::size_t p = 0; p < m; ++p)
    port_source[p] = netlist.add_voltage_source("__port" + std::to_string(p), port_nodes[p],
                                                circuit::kGround, 0.0);

  circuit::MnaAssembler assembler(netlist);
  const auto g = assembler.build_g();
  const auto c = assembler.build_c();
  auto lu = linalg::SparseLu::factor(g);
  if (!lu)
    throw health::FailError(
        health::FailClass::kSingularY0,
        "port_admittance_moments: grounded-port DC matrix is singular — a port is "
        "DC-shorted by an ideal inductor (its port admittance has a pole at s=0 "
        "and no Maclaurin expansion), or an internal node lost its DC path");

  std::vector<std::size_t> aux_row(m);
  for (std::size_t p = 0; p < m; ++p)
    aux_row[p] = assembler.layout().aux_unknown(port_source[p]);

  std::vector<std::vector<double>> yk(count, std::vector<double>(m * m, 0.0));
  // Column j: excite port j, run the moment recursion against the shared
  // factor.
  for (std::size_t j = 0; j < m; ++j) {
    health::failpoints::maybe_fail(health::failpoints::sites::kPartitionMomentSolve);
    linalg::Vector x = lu->solve(assembler.rhs("__port" + std::to_string(j), 1.0));
    for (std::size_t k = 0; k < count; ++k) {
      if (k > 0) {
        linalg::Vector rhs = c.multiply(x);
        for (double& v : rhs) v = -v;
        lu->solve_in_place(rhs);
        x = std::move(rhs);
      }
      // Current INTO the subnetwork at port i = minus the source branch
      // current (the branch current flows node -> ground).
      for (std::size_t i = 0; i < m; ++i) yk[k][i * m + j] = -x[aux_row[i]];
    }
  }
  return yk;
}

}  // namespace awe::part
