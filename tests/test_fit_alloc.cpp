// Allocation regression test for the sweep's ROM fit.
//
// The fit lane kernel works in per-worker scratch sized once per chunk, so
// a with_rom sweep's heap allocations must not grow with its point count.
// A counting global operator new (which is why this is its own
// executable) measures a warmed-up 741 order-2 sweep on a caller-owned
// 1-thread pool at 1024 and at 8192 points: the counts must be equal, i.e.
// zero allocations per fitted point or per lane block.
//
// The same counter also records the largest single allocation, which pins
// that a model stream load sizes its buffer by the bytes that arrive, not
// by the size a (possibly damaged) header claims.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/opamp741.hpp"
#include "core/awesymbolic.hpp"
#include "core/model_format.hpp"
#include "engine/sweep.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size, std::memory_order_relaxed)) {
  }
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

TEST(ModelLoadAllocations, HeaderSizeClaimDoesNotDriveAllocation) {
  // 16 bytes: magic, the current version, and a total size of 2^32 that
  // the stream never delivers.
  std::string bytes("AWEM", 4);
  const std::uint32_t version = core::kModelFormatVersion;
  const std::uint64_t total_size = std::uint64_t{1} << 32;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&total_size), sizeof(total_size));
  std::istringstream in(bytes);
  g_largest.store(0);
  try {
    (void)core::CompiledModel::load(in);
    FAIL() << "a 16-byte stream must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "CompiledModel::load: truncated payload");
  }
  EXPECT_LE(g_largest.load(), std::size_t{2} << 20)
      << "the load allocated for bytes that never arrived";
}

}  // namespace
}  // namespace awe
