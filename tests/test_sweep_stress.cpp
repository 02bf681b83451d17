// Thread-safety stress tests for the sweep layer: many threads hammering
// one shared const CompiledModel through per-thread workspaces, plus
// ThreadPool lifecycle/exception coverage.  Run these under
// -DAWE_SANITIZE=thread to let TSan check the claimed const-safety.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuits/fig1_rc.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"
#include "engine/thread_pool.hpp"

namespace awe {
namespace {

TEST(SweepStress, ManyThreadsShareOneConstModel) {
  auto fig = circuits::make_fig1();
  const auto model = core::CompiledModel::build(fig.netlist, {"g2", "c2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = 2});
  const std::size_t nm = model.moment_count();

  // Shared read-only point set; every thread evaluates all of it.
  const std::size_t npts = 64;
  std::vector<double> points(2 * npts);
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> vdist(0.25, 4.0);
  for (double& v : points) v = vdist(rng);

  std::vector<double> ref(nm * npts);
  for (std::size_t p = 0; p < npts; ++p) {
    const auto m = model.moments_at(std::vector<double>{points[p], points[npts + p]});
    for (std::size_t k = 0; k < nm; ++k) ref[k * npts + p] = m[k];
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Per-thread workspaces; the model itself is shared and const.
      auto ws = model.make_batch_workspace(1);
      auto bws = model.make_batch_workspace(16);
      std::vector<double> vals(2), moments(nm), out(nm * npts);
      std::vector<unsigned char> ok(npts);
      for (int it = 0; it < kIters; ++it) {
        // One point per call through a reused count-1 workspace.
        const std::size_t p = static_cast<std::size_t>((t * kIters + it) % npts);
        vals[0] = points[p];
        vals[1] = points[npts + p];
        model.moments_batch(vals, 1, 1, ws, moments, 1, std::span<unsigned char>(ok.data(), 1));
        for (std::size_t k = 0; k < nm; ++k)
          if (moments[k] != ref[k * npts + p]) mismatches.fetch_add(1);
        // Batched path over the whole set.
        for (std::size_t b = 0; b < npts; b += 16) {
          const std::size_t w = std::min<std::size_t>(16, npts - b);
          model.moments_batch(
              std::span<const double>(points.data() + b, points.size() - b), npts, w, bws,
              std::span<double>(out.data() + b, out.size() - b), npts,
              std::span<unsigned char>(ok.data() + b, w));
        }
        for (std::size_t i = 0; i < out.size(); ++i)
          if (out[i] != ref[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SweepStress, ConcurrentSweepsOverOneModel) {
  auto fig = circuits::make_fig1();
  const auto model = core::CompiledModel::build(fig.netlist, {"g2", "c2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = 2});
  const std::vector<sweep::Distribution> dists{sweep::Distribution::uniform(0.3, 3.0),
                                               sweep::Distribution::uniform(0.3, 3.0)};
  sweep::SweepOptions serial;
  serial.threads = 1;
  const auto ref = sweep::monte_carlo(model, dists, 200, 11, serial);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      // Each concurrent caller runs its own multi-threaded sweep.
      sweep::SweepOptions opts;
      opts.threads = 3;
      const auto got = sweep::monte_carlo(model, dists, 200, 11, opts);
      if (got.moments != ref.moments || got.ok != ref.ok) mismatches.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  sweep::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_chunks(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "n " << n;
  }
}

TEST(ThreadPool, SingleThreadRunsInline) {
  sweep::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_chunks(10, [&](std::size_t worker, std::size_t begin, std::size_t end) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, PropagatesExceptionsAndStaysUsable) {
  sweep::ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.parallel_chunks(30,
                             [&](std::size_t, std::size_t begin, std::size_t) {
                               if (begin == 0) throw std::runtime_error("chunk failed");
                             }),
        std::runtime_error);
    // Pool must have drained and be reusable for a clean job.
    std::atomic<std::size_t> total{0};
    pool.parallel_chunks(30, [&](std::size_t, std::size_t begin, std::size_t end) {
      total.fetch_add(end - begin);
    });
    EXPECT_EQ(total.load(), 30u);
  }
}

TEST(ThreadPool, ReusedAcrossSweepsMatchesFreshPool) {
  auto fig = circuits::make_fig1();
  const auto model = core::CompiledModel::build(fig.netlist, {"g2", "c2"},
                                                circuits::Fig1Circuit::kInput, fig.v2,
                                                {.order = 2});
  const std::vector<sweep::Distribution> dists{sweep::Distribution::normal(1.0, 0.1),
                                               sweep::Distribution::normal(1.0, 0.1)};
  sweep::ThreadPool pool(3);
  sweep::SweepOptions shared;
  shared.pool = &pool;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto a = sweep::monte_carlo(model, dists, 150, seed, shared);
    sweep::SweepOptions fresh;
    fresh.threads = 2;
    const auto b = sweep::monte_carlo(model, dists, 150, seed, fresh);
    EXPECT_EQ(a.moments, b.moments);
    EXPECT_EQ(a.ok_count, b.ok_count);
  }
}

}  // namespace
}  // namespace awe
