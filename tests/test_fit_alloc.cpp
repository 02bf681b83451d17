// Allocation regression test for the sweep's ROM fit.
//
// The fit lane kernel works in per-worker scratch sized once per chunk, so
// a with_rom sweep's heap allocations must not grow with its point count.
// A counting global operator new (which is why this is its own
// executable) measures a warmed-up 741 order-2 sweep on a caller-owned
// 1-thread pool at 1024 and at 8192 points: the counts must be equal, i.e.
// zero allocations per fitted point or per lane block.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace awe {
namespace {

TEST(FitAllocations, WithRomSweepAllocationsDoNotGrowWithPoints) {
  const auto amp = circuits::make_opamp741();
  const auto model = core::CompiledModel::build(
      amp.netlist,
      {circuits::Opamp741Circuit::kSymbolGout, circuits::Opamp741Circuit::kSymbolCcomp},
      circuits::Opamp741Circuit::kInput, amp.out, {.order = 2});
  const std::vector<sweep::Distribution> dists{
      sweep::Distribution::lognormal(1.0 / 75.0, 1.0),
      sweep::Distribution::lognormal(30e-12, 1.0)};
  sweep::ThreadPool pool(1);
  sweep::SweepOptions opts;
  opts.pool = &pool;
  opts.with_rom = true;

  const auto allocations = [&](std::size_t n) {
    std::vector<double> pts = sweep::sample_points(dists, n, 7);
    const std::size_t before = g_allocations.load();
    const sweep::SweepResult r = sweep::run_sweep(model, std::move(pts), n, opts);
    const std::size_t after = g_allocations.load();
    EXPECT_EQ(r.health.points_ok, n);
    return after - before;
  };
  (void)allocations(1024);  // warm-up
  const std::size_t small = allocations(1024);
  const std::size_t large = allocations(8192);
  EXPECT_EQ(small, large) << "a with_rom sweep allocates per point or per lane block";
  EXPECT_GT(small, 0u) << "the counting operator new is not in use";
}

}  // namespace
}  // namespace awe
