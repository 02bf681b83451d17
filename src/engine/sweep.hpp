// Parallel batched sweep engine over compiled symbolic models.
//
// The paper's economics (Table 1) make the compiled model the right tool
// for *repeated* evaluation — iterative design loops, corner analysis,
// Monte Carlo yield.  This engine serves that workload at scale: points
// are laid out structure-of-arrays and evaluated through the batched
// interpreter (CompiledProgram::run_batch) by a static-chunked thread
// pool, one allocation-free BatchWorkspace per worker.
//
// Determinism guarantee: a sweep's numeric results are bit-identical
// regardless of thread count and batch width.  Per-lane arithmetic in the
// batched interpreter matches the scalar order exactly, every point owns
// disjoint output slots, Monte Carlo points are drawn serially before the
// parallel phase, and all statistics are reduced serially after it.
#pragma once

#include <complex>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "awe/rom.hpp"
#include "core/awesymbolic.hpp"
#include "core/model_store.hpp"
#include "engine/cancel.hpp"
#include "engine/thread_pool.hpp"
#include "health/report.hpp"
#include "health/status.hpp"

namespace awe::sweep {

/// Deterministic per-point degradation ladder (DESIGN.md §11).  Each point
/// records the DEEPEST stage that had to run for it to produce a result;
/// kQuarantined means every stage failed and SweepResult::fail_class holds
/// why.  The ladder is a fixed per-point sequence with no cross-point or
/// cross-thread state, so it terminates deterministically and preserves
/// the sweep engine's bit-identical-across-thread-counts guarantee.
enum class LadderStage : std::uint8_t {
  kPrimary = 0,       ///< first-try eval (and ROM fit) succeeded
  /// Never produced.  The code stays reserved because the numeric codes
  /// index rom_fit_golden's stages= column and perfbench's stage counts.
  kStrictReeval = 1,
  kOrderFallback = 2, ///< Padé order fallback recovered the ROM fit
  kShiftedRefit = 3,  ///< shifted-moment refit recovered the ROM fit
  kQuarantined = 4,   ///< no stage recovered; fail_class records why
};

const char* to_string(LadderStage s);

struct SweepOptions {
  std::size_t threads = 0;       ///< total workers; 0 = hardware concurrency
  std::size_t batch_width = 64;  ///< SoA lane-block width (points per run_batch)
  /// Extract a per-point reduced-order model and record its poles,
  /// residues and DC gain in SweepResult::rom.
  bool with_rom = false;
  /// Per-point acceptance predicate on the reduced-order model (e.g. a
  /// pole-location criterion for yield).  Setting it implies per-point ROM
  /// extraction; points whose evaluation or ROM fit fails count as fails.
  std::function<bool(const engine::ReducedOrderModel&)> pass_predicate;
  /// Evaluate d(moments)/d(element value) for all symbols at every point
  /// through the model's reverse-mode gradient program (requires a model
  /// built with ModelOptions::with_gradients; throws std::invalid_argument
  /// otherwise).  Fills SweepResult::gradients.  The gradient stream
  /// embeds the primal outputs, so this replaces — not duplicates — the
  /// forward program run; the moments AND gradients are
  /// bit-identical across thread counts and batch widths, exactly like the
  /// forward path (DESIGN.md §14).
  bool gradients = false;
  /// With `gradients`: additionally chain each point's moment gradients
  /// through the Padé/Hankel system (pole_zero_sensitivities_from_dm) to
  /// per-point pole sensitivities, filling SweepResult::sensitivities.
  /// Per-point and cross-point-state-free, so the determinism guarantee is
  /// preserved.  Points whose Hankel system is singular get NaN rows and a
  /// 0 flag — never a sweep failure.
  bool pole_sensitivities = false;
  /// Reuse an existing pool across sweeps (overrides `threads`).
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation (engine/cancel.hpp): checked once per SoA
  /// batch by every worker.  Once it reports cancelled, points not yet
  /// evaluated are quarantined with FailClass::kDeadline and the sweep
  /// returns early with partial — but fully accounted — results; the pool
  /// and its workspaces stay reusable.  nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Summary statistics over the successfully evaluated points.
struct Stats {
  double min = 0.0, max = 0.0, mean = 0.0, stddev = 0.0;
  std::size_t count = 0;  ///< points the statistic was computed over
};

/// Per-point reduced-order model samples (awe/rom.hpp), filled in place by
/// the ROM fit lane kernel.
using engine::RomSamples;

/// Per-point pole sensitivities (SweepOptions::pole_sensitivities),
/// flattened SoA-style like RomSamples.  Points whose chain-rule solve
/// failed (singular Hankel system, non-finite gradients) keep NaN slots
/// and a 0 ok flag.
struct SensitivitySamples {
  std::size_t max_order = 0;
  std::size_t num_symbols = 0;
  std::vector<std::uint8_t> ok;  ///< per point: chain rule succeeded
  /// d p_j / d v_i at point p: dpole[(p*max_order + j)*num_symbols + i].
  std::vector<std::complex<double>> dpole;
};

struct SweepResult {
  std::size_t num_points = 0;
  std::size_t num_symbols = 0;
  std::size_t num_moments = 0;
  std::vector<double> points;       ///< SoA: symbol i of point p at [i*num_points + p]
  std::vector<double> moments;      ///< SoA: moment k of point p at [k*num_points + p]
  std::vector<std::uint8_t> ok;     ///< per point: moments evaluated successfully
  std::vector<std::uint8_t> pass;   ///< per point predicate result (empty without one)
  std::vector<Stats> moment_stats;  ///< one per moment, over ok points
  std::optional<RomSamples> rom;    ///< filled when SweepOptions::with_rom
  std::optional<Stats> dc_gain_stats;  ///< filled alongside rom/predicate
  /// SoA moment gradients (SweepOptions::gradients): d m_k / d v_i at
  /// point p sits at [(i*num_moments + k)*num_points + p], chain-ruled to
  /// ELEMENT values.  NaN for failed points; empty without the option.
  std::vector<double> gradients;
  /// Per-point pole sensitivities (SweepOptions::pole_sensitivities).
  std::optional<SensitivitySamples> sensitivities;
  std::size_t ok_count = 0;
  std::size_t pass_count = 0;
  /// Per point: deepest LadderStage that ran for it (values of LadderStage).
  std::vector<std::uint8_t> ladder_stage;
  /// Per point: FailClass of quarantined points (kNone when not quarantined).
  std::vector<std::uint8_t> fail_class;
  /// Aggregated fault/degradation accounting for this sweep.  points_ok +
  /// points_degraded + points_quarantined == num_points, always.
  health::HealthReport health;

  double point(std::size_t symbol, std::size_t p) const { return points[symbol * num_points + p]; }
  double moment(std::size_t k, std::size_t p) const { return moments[k * num_points + p]; }
  double gradient(std::size_t symbol, std::size_t k, std::size_t p) const {
    return gradients[(symbol * num_moments + k) * num_points + p];
  }
  LadderStage point_stage(std::size_t p) const {
    return static_cast<LadderStage>(ladder_stage[p]);
  }
  health::FailClass point_fail_class(std::size_t p) const {
    return static_cast<health::FailClass>(fail_class[p]);
  }
  /// Fraction of ALL points passing the predicate (failures count against).
  double yield() const {
    return num_points == 0 ? 0.0 : static_cast<double>(pass_count) / static_cast<double>(num_points);
  }
};

/// Evaluate the model over `num_points` points given SoA (symbol-major):
/// element value i of point p at points[i*num_points + p].  The core
/// engine under all drivers below.
SweepResult run_sweep(const core::CompiledModel& model, std::vector<double> points,
                      std::size_t num_points, const SweepOptions& opts = {});

/// Hot-swap-safe variant: pins the store's current generation ONCE (one
/// shared_ptr copy) and runs the entire sweep against it.  A publish that
/// lands mid-sweep affects only LATER sweeps — this one completes
/// bit-identically on the pinned generation, whose mapped region the pin
/// keeps alive (core/model_store.hpp).  Throws std::runtime_error when
/// nothing has been published yet.
SweepResult run_sweep(const core::SharedModelStore& store, std::vector<double> points,
                      std::size_t num_points, const SweepOptions& opts = {});

// -- drivers -------------------------------------------------------------

/// Per-symbol sampling distribution for Monte Carlo.
struct Distribution {
  enum class Kind { kNormal, kUniform, kLogNormal };
  Kind kind = Kind::kNormal;
  double a = 0.0;  ///< normal: mean; uniform: lo; lognormal: median
  double b = 0.0;  ///< normal: stddev; uniform: hi; lognormal: sigma of ln
  static Distribution normal(double mean, double stddev) {
    return {Kind::kNormal, mean, stddev};
  }
  static Distribution uniform(double lo, double hi) { return {Kind::kUniform, lo, hi}; }
  static Distribution lognormal(double median, double sigma) {
    return {Kind::kLogNormal, median, sigma};
  }
};

/// Draw n points (SoA, symbol-major) from per-symbol distributions.
/// Serial and seed-deterministic: the same (distributions, n, seed) give
/// the same points whatever the sweep's thread count.
std::vector<double> sample_points(std::span<const Distribution> distributions,
                                  std::size_t n, std::uint64_t seed);

SweepResult monte_carlo(const core::CompiledModel& model,
                        std::span<const Distribution> distributions, std::size_t n,
                        std::uint64_t seed = 42, const SweepOptions& opts = {});

/// One symbol's grid axis; count == 1 pins the symbol at lo.
struct Axis {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t count = 1;
  bool log_scale = false;  ///< geometric instead of linear spacing
};

/// Full factorial grid (row-major: the LAST axis varies fastest).
/// num_points_out receives prod(count).
std::vector<double> grid_points(std::span<const Axis> axes, std::size_t& num_points_out);

SweepResult grid_sweep(const core::CompiledModel& model, std::span<const Axis> axes,
                       const SweepOptions& opts = {});

/// Per-symbol lo/hi corner values.
struct Corner {
  double lo = 0.0;
  double hi = 0.0;
};

/// All 2^nsym process corners; bit i of the point index selects symbol i's
/// hi value.  Throws for more than 24 symbols.
SweepResult corners(const core::CompiledModel& model, std::span<const Corner> extremes,
                    const SweepOptions& opts = {});

}  // namespace awe::sweep
