// RC mesh workload: fill-producing sparse solves and partitioning on
// non-tree interconnect.
#include <gtest/gtest.h>

#include <cmath>

#include "awe/awe.hpp"
#include "circuits/mesh.hpp"
#include "core/awesymbolic.hpp"
#include "transim/transim.hpp"

namespace awe {
namespace {

TEST(Mesh, GeneratorShape) {
  circuits::MeshValues v;
  v.width = 4;
  v.height = 3;
  auto mesh = circuits::make_rc_mesh(v);
  // V + rdrv + 12 caps + cload + edges: x-edges 3*3=9, y-edges 4*2=8.
  EXPECT_EQ(mesh.netlist.elements().size(), 2u + 12u + 1u + 9u + 8u);
  EXPECT_TRUE(mesh.netlist.validate().empty());
  EXPECT_THROW(circuits::make_rc_mesh({.width = 1}), std::invalid_argument);
}

TEST(Mesh, AweTracksTransient) {
  circuits::MeshValues v;
  v.width = 10;
  v.height = 10;
  auto mesh = circuits::make_rc_mesh(v);
  const auto rom = engine::run_awe(mesh.netlist, circuits::MeshCircuit::kInput,
                                   mesh.far_corner, {.order = 3});
  EXPECT_NEAR(rom.dc_gain(), 1.0, 1e-9);
  EXPECT_TRUE(rom.is_stable());

  transim::TransientSimulator sim(mesh.netlist);
  sim.set_waveform(circuits::MeshCircuit::kInput, transim::step(1.0));
  transim::TransientOptions topts;
  topts.t_stop = 20e-9;
  topts.dt = 0.01e-9;
  const auto res = sim.run(topts);
  const auto vt = res.node_voltage(sim.layout(), mesh.far_corner);
  double max_err = 0.0;
  for (std::size_t k = 0; k < vt.size(); k += 16)
    max_err = std::max(max_err, std::abs(vt[k] - rom.step_response(res.time[k])));
  EXPECT_LT(max_err, 0.02);
}

TEST(Mesh, SymbolicModelOnMesh) {
  // Symbols: driver resistance and the far-corner load — the partitioner
  // must handle mesh (non-tree) numeric partitions transparently.
  circuits::MeshValues v;
  v.width = 8;
  v.height = 8;
  auto mesh = circuits::make_rc_mesh(v);
  const auto model = core::CompiledModel::build(mesh.netlist, {"rdrv", "cload"},
                                                circuits::MeshCircuit::kInput,
                                                mesh.far_corner, {.order = 2});
  for (const double r : {10.0, 50.0}) {
    for (const double cl : {1e-12, 5e-12}) {
      const auto m_sym = model.moments_at(std::vector<double>{r, cl});
      mesh.netlist.set_value("rdrv", r);
      mesh.netlist.set_value("cload", cl);
      const auto m_ref =
          engine::MomentGenerator(mesh.netlist)
              .transfer_moments(circuits::MeshCircuit::kInput, mesh.far_corner, 4);
      for (std::size_t k = 0; k < 4; ++k)
        EXPECT_NEAR(m_sym[k], m_ref[k], 1e-8 * (std::abs(m_ref[k]) + 1e-25))
            << "r=" << r << " cl=" << cl << " k=" << k;
    }
  }
}

TEST(Mesh, ElmoreDelayGrowsWithMeshSize) {
  auto elmore = [](std::size_t n) {
    circuits::MeshValues v;
    v.width = n;
    v.height = n;
    auto mesh = circuits::make_rc_mesh(v);
    const auto rom = engine::run_awe(mesh.netlist, circuits::MeshCircuit::kInput,
                                     mesh.far_corner, {.order = 2});
    return rom.elmore_delay();
  };
  const double e4 = elmore(4), e8 = elmore(8), e16 = elmore(16);
  EXPECT_GT(e8, e4);
  EXPECT_GT(e16, e8);
}

}  // namespace
}  // namespace awe
