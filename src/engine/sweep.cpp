#include "engine/sweep.hpp"

#include <algorithm>

#include "awe/sensitivity.hpp"
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>

namespace awe::sweep {

const char* to_string(LadderStage s) {
  switch (s) {
    case LadderStage::kPrimary: return "primary";
    case LadderStage::kStrictReeval: return "strict-reeval";
    case LadderStage::kOrderFallback: return "order-fallback";
    case LadderStage::kShiftedRefit: return "shifted-refit";
    case LadderStage::kQuarantined: return "quarantined";
  }
  return "?";
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// fail_class value meaning "the parallel phase never reached this point".
/// Distinct from every FailClass so task-death containment can tell which
/// points the dead task left behind.
constexpr std::uint8_t kUnprocessed = 0xff;

engine::RomOptions rom_options(const core::ModelOptions& m) {
  engine::RomOptions r;
  r.order = m.order;
  r.enforce_stability = m.enforce_stability;
  r.allow_order_fallback = m.allow_order_fallback;
  return r;
}

RomSamples make_rom_samples(std::size_t n, std::size_t max_order) {
  RomSamples rs;
  rs.max_order = max_order;
  rs.order.assign(n, 0);
  rs.poles.assign(n * max_order, {kNaN, kNaN});
  rs.residues.assign(n * max_order, {kNaN, kNaN});
  rs.dc_gain.assign(n, kNaN);
  return rs;
}

/// Ladder verdict for one point: deepest stage that ran, and the terminal
/// FailClass when the point ended up quarantined (kNone otherwise).
struct FitOutcome {
  LadderStage stage = LadderStage::kPrimary;
  health::FailClass fail = health::FailClass::kNone;
};

/// Deterministic expansion shift for the refit stage: half the |m0/m1|
/// dominant-pole magnitude estimate, or 1 when that estimate is unusable.
/// Depends only on the point's own moments, never on sweep geometry.
double pick_shift(std::span<const double> m) {
  if (m.size() >= 2 && std::isfinite(m[0]) && std::isfinite(m[1]) && m[1] != 0.0) {
    const double s0 = 0.5 * std::abs(m[0] / m[1]);
    if (std::isfinite(s0) && s0 > 0.0) return s0;
  }
  return 1.0;
}

/// Exact truncated Taylor shift of the moment polynomial: with
/// H(s) = sum_k m_k s^k and s = s0 + sigma, the sigma-domain moments are
/// mhat_j = sum_{k>=j} C(k,j) m_k s0^(k-j).  Truncation keeps this an
/// approximation of H about s0, but a deterministic one — good enough to
/// rescue Hankel systems that are singular at the origin.
std::vector<double> shift_moments(std::span<const double> m, double s0) {
  const std::size_t nm = m.size();
  std::vector<double> out(nm, 0.0);
  for (std::size_t j = 0; j < nm; ++j) {
    double binom = 1.0;  // C(k, j), starting at k = j
    double pow_s = 1.0;  // s0^(k-j)
    double acc = 0.0;
    for (std::size_t k = j; k < nm; ++k) {
      acc += binom * m[k] * pow_s;
      pow_s *= s0;
      binom = binom * static_cast<double>(k + 1) / static_cast<double>(k + 1 - j);
    }
    out[j] = acc;
  }
  return out;
}

/// The degradation ladder below a failed primary fit of point p (fit_lanes
/// verdict `primary`): order fallback (when the options disabled it) ->
/// shifted-moment refit -> quarantine.  Only fit failures
/// (health::FailError) ride the ladder; programming errors (std::bad_alloc,
/// std::logic_error, ...) propagate to the caller.  A quarantined point
/// keeps order 0 / NaN samples and a 0 pass flag.
FitOutcome fit_fallback(const engine::RomOptions& ropts, std::span<const double> lane_moments,
                        std::size_t p, RomSamples& rs,
                        const std::function<bool(const engine::ReducedOrderModel&)>& pred,
                        std::vector<std::uint8_t>* pass, health::HealthReport& hr,
                        health::FailClass primary) {
  const auto record = [&](const engine::ReducedOrderModel& rom) {
    const std::size_t q = std::min(rom.order(), rs.max_order);
    rs.order[p] = static_cast<std::uint8_t>(q);
    for (std::size_t j = 0; j < q; ++j) {
      rs.poles[p * rs.max_order + j] = rom.poles()[j];
      rs.residues[p * rs.max_order + j] = rom.residues()[j];
    }
    rs.dc_gain[p] = rom.dc_gain();
    if (pred && pass) (*pass)[p] = pred(rom) ? 1 : 0;
  };
  health::FailClass last = primary;
  if (!ropts.allow_order_fallback) {
    ++hr.order_fallbacks;
    engine::RomOptions relaxed = ropts;
    relaxed.allow_order_fallback = true;
    try {
      record(engine::ReducedOrderModel::from_moments(lane_moments, relaxed));
      return {LadderStage::kOrderFallback, health::FailClass::kNone};
    } catch (const health::FailError& e) {
      last = e.fail_class();
    }
  }
  ++hr.shifted_refits;
  try {
    const double s0 = pick_shift(lane_moments);
    engine::RomOptions relaxed = ropts;
    relaxed.allow_order_fallback = true;
    record(engine::ReducedOrderModel::from_shifted_moments(shift_moments(lane_moments, s0),
                                                           relaxed, s0));
    return {LadderStage::kShiftedRefit, health::FailClass::kNone};
  } catch (const health::FailError& e) {
    last = e.fail_class();
  }
  return {LadderStage::kQuarantined, last};
}

/// Per-worker ROM fit state: the lane kernel's scratch and per-lane
/// verdicts, sized once per chunk from the model order and batch width.
struct ChunkFit {
  ChunkFit(std::size_t order, std::size_t width) : scratch(order), fail(width) {}
  engine::FitScratch scratch;
  std::vector<health::FailClass> fail;
};

/// Fit r's ROMs over the lane block [b, b+w): one fit_lanes call over the
/// block, then the fallback ladder for the points whose primary fit
/// failed.  Points the evaluation rung quarantined are skipped.  `moments`
/// holds the output's moment rows (stride r.num_points).
void fit_block(const engine::RomOptions& ropts, const double* moments,
               const std::vector<std::uint8_t>& ok, std::size_t b, std::size_t w,
               const std::function<bool(const engine::ReducedOrderModel&)>& pred,
               SweepResult& r, ChunkFit& cf, std::vector<double>& lane,
               health::HealthReport& hr) {
  const std::size_t n = r.num_points, nm = lane.size();
  std::function<void(std::size_t)> on_fit;
  if (pred)
    on_fit = [&](std::size_t i) {
      r.pass[b + i] = pred(cf.scratch.model(cf.scratch.lane)) ? 1 : 0;
    };
  engine::fit_lanes(std::span<const double>(moments + b, (nm - 1) * n + w), n, w,
                    std::span<const unsigned char>(ok.data() + b, w), ropts, cf.scratch,
                    *r.rom, b, cf.fail, on_fit);
  for (std::size_t p = b; p < b + w; ++p) {
    const health::FailClass primary = cf.fail[p - b];
    if (r.fail_class[p] != static_cast<std::uint8_t>(health::FailClass::kNone) ||
        primary == health::FailClass::kNone)
      continue;
    for (std::size_t k = 0; k < nm; ++k) lane[k] = moments[k * n + p];
    const FitOutcome fit = fit_fallback(ropts, lane, p, *r.rom, pred,
                                        r.pass.empty() ? nullptr : &r.pass, hr, primary);
    r.ladder_stage[p] = static_cast<std::uint8_t>(
        fit.fail != health::FailClass::kNone
            ? fit.stage
            : std::max(static_cast<LadderStage>(r.ladder_stage[p]), fit.stage));
    r.fail_class[p] = static_cast<std::uint8_t>(fit.fail);
  }
}

/// True when all `rows` output lanes of point p hold finite values.
bool lanes_finite(const std::vector<double>& soa, std::size_t rows, std::size_t n,
                  std::size_t p) {
  for (std::size_t r = 0; r < rows; ++r)
    if (!std::isfinite(soa[r * n + p])) return false;
  return true;
}

/// Evaluation rung of the ladder for one point whose lanes were just
/// filled by a moments_batch call.  In fast mode a rejected or non-finite
/// point gets one width-1 strict re-evaluation (fast-mode fusion is the
/// usual suspect) before being quarantined.  Writes recovered moments back
/// into the shared SoA block.
template <typename Model>
FitOutcome eval_ladder_point(const Model& model, const std::vector<double>& pts,
                             std::vector<double>& soa, std::vector<std::uint8_t>& ok,
                             std::size_t rows, std::size_t n, std::size_t p,
                             core::EvalMode mode, std::optional<core::BatchWorkspace>& ws1,
                             std::uint64_t& strict_reevals) {
  bool finite = lanes_finite(soa, rows, n, p);
  LadderStage stage = LadderStage::kPrimary;
  if (mode == core::EvalMode::kFast && (!ok[p] || !finite)) {
    ++strict_reevals;
    if (!ws1) ws1 = model.make_batch_workspace(1);
    model.moments_batch(std::span<const double>(pts.data() + p, pts.size() - p), n, 1, *ws1,
                        std::span<double>(soa.data() + p, soa.size() - p), n,
                        std::span<unsigned char>(ok.data() + p, 1), core::EvalMode::kStrict);
    finite = lanes_finite(soa, rows, n, p);
    if (ok[p] && finite) stage = LadderStage::kStrictReeval;
  }
  if (!ok[p] || !finite) {
    const health::FailClass fail =
        !ok[p] ? health::FailClass::kSingularY0 : health::FailClass::kNonFiniteEval;
    ok[p] = 0;
    return {LadderStage::kQuarantined, fail};
  }
  return {stage, health::FailClass::kNone};
}

/// Two-pass min/max/mean/stddev over the finite values of ok points.
Stats stats_over(const double* vals, std::size_t n, const std::vector<std::uint8_t>& ok) {
  Stats s;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    if (!ok.empty() && !ok[p]) continue;
    const double v = vals[p];
    if (!std::isfinite(v)) continue;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
    ++s.count;
  }
  if (s.count == 0) {
    s.min = s.max = s.mean = s.stddev = kNaN;
    return s;
  }
  s.mean = sum / static_cast<double>(s.count);
  double sq = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    if (!ok.empty() && !ok[p]) continue;
    const double v = vals[p];
    if (!std::isfinite(v)) continue;
    sq += (v - s.mean) * (v - s.mean);
  }
  s.stddev = std::sqrt(sq / static_cast<double>(s.count));
  return s;
}

/// Serial post-join reductions shared by both run_sweep overloads.
void finalize_result(SweepResult& res) {
  const std::size_t n = res.num_points;
  res.moment_stats.resize(res.num_moments);
  for (std::size_t k = 0; k < res.num_moments; ++k)
    res.moment_stats[k] = stats_over(res.moments.data() + k * n, n, res.ok);
  res.ok_count = 0;
  for (const std::uint8_t f : res.ok) res.ok_count += f;
  res.pass_count = 0;
  for (const std::uint8_t f : res.pass) res.pass_count += f;
  if (res.rom) res.dc_gain_stats = stats_over(res.rom->dc_gain.data(), n, res.ok);
  // Health disposition: every point lands in exactly one bucket, so
  // ok + degraded + quarantined == num_points always holds.
  res.health.points_total = n;
  for (std::size_t p = 0; p < n; ++p) {
    const auto stage = static_cast<LadderStage>(res.ladder_stage[p]);
    if (stage == LadderStage::kQuarantined) {
      ++res.health.points_quarantined;
      res.health.record_failure(static_cast<health::FailClass>(res.fail_class[p]));
    } else if (stage == LadderStage::kPrimary) {
      ++res.health.points_ok;
    } else {
      ++res.health.points_degraded;
    }
  }
}

/// Deadline cancellation for one chunk: quarantine every remaining point
/// [b, end) of the chunk as FailClass::kDeadline.  Points the chunk (or
/// other chunks) already evaluated keep their results — the sweep returns
/// partial, honestly-accounted output, never a torn one.
void mark_deadline_points(std::size_t b, std::size_t end,
                          std::vector<std::uint8_t>& ok,
                          std::vector<std::uint8_t>& ladder_stage,
                          std::vector<std::uint8_t>& fail_class) {
  for (std::size_t p = b; p < end; ++p) {
    ok[p] = 0;
    ladder_stage[p] = static_cast<std::uint8_t>(LadderStage::kQuarantined);
    fail_class[p] = static_cast<std::uint8_t>(health::FailClass::kDeadline);
  }
}

/// A pool task died outside any point's ladder (e.g. an injected
/// thread_pool.task fault).  Results already written stand; every point
/// the dead task never reached is quarantined as a task casualty.
void contain_task_failure(std::vector<std::uint8_t>& fail_class,
                          std::vector<std::uint8_t>& ladder_stage,
                          std::vector<std::uint8_t>& ok) {
  for (std::size_t p = 0; p < fail_class.size(); ++p) {
    if (fail_class[p] != kUnprocessed) continue;
    ok[p] = 0;
    ladder_stage[p] = static_cast<std::uint8_t>(LadderStage::kQuarantined);
    fail_class[p] = static_cast<std::uint8_t>(health::FailClass::kTaskException);
  }
}

}  // namespace

SweepResult run_sweep(const core::CompiledModel& model, std::vector<double> points,
                      std::size_t num_points, const SweepOptions& opts) {
  const std::size_t nsym = model.symbol_count();
  const std::size_t nm = model.moment_count();
  if (points.size() != nsym * num_points)
    throw std::invalid_argument("run_sweep: points.size() must be symbol_count*num_points");

  const bool want_grads = opts.gradients || opts.pole_sensitivities;
  if (want_grads && !model.has_gradients())
    throw std::invalid_argument(
        "run_sweep: SweepOptions::gradients requires a model built with "
        "ModelOptions::with_gradients");

  SweepResult res;
  res.num_points = num_points;
  res.num_symbols = nsym;
  res.num_moments = nm;
  res.points = std::move(points);
  res.moments.assign(nm * num_points, 0.0);
  res.ok.assign(num_points, 1);
  res.ladder_stage.assign(num_points, 0);
  res.fail_class.assign(num_points, kUnprocessed);
  const bool need_rom = opts.with_rom || static_cast<bool>(opts.pass_predicate);
  if (need_rom) res.rom = make_rom_samples(num_points, model.order());
  if (opts.pass_predicate) res.pass.assign(num_points, 0);
  if (want_grads) res.gradients.assign(nsym * nm * num_points, 0.0);
  if (opts.pole_sensitivities) {
    res.sensitivities.emplace();
    res.sensitivities->max_order = model.order();
    res.sensitivities->num_symbols = nsym;
    res.sensitivities->ok.assign(num_points, 0);
    res.sensitivities->dpole.assign(num_points * model.order() * nsym, {kNaN, kNaN});
  }
  if (num_points == 0) {
    finalize_result(res);
    return res;
  }

  std::optional<ThreadPool> local;
  ThreadPool* pool = opts.pool;
  if (!pool) pool = &local.emplace(opts.threads);
  const std::size_t width = std::max<std::size_t>(1, opts.batch_width);
  const engine::RomOptions ropts = rom_options(model.options());
  const std::size_t n = num_points;

  // One HealthReport per static chunk; merged serially after the join, so
  // the ladder counters are deterministic for a given chunk geometry and
  // (being pure sums) identical across geometries.
  std::vector<health::HealthReport> worker_health(pool->size());

  try {
    pool->parallel_chunks(n, [&](std::size_t worker, std::size_t begin, std::size_t end) {
      health::HealthReport& hr = worker_health[worker];
      core::BatchWorkspace ws = want_grads ? model.make_gradient_batch_workspace(width)
                                           : model.make_batch_workspace(width);
      std::optional<core::BatchWorkspace> ws1;
      std::vector<double> lane(nm);
      std::optional<ChunkFit> fit;
      if (need_rom) fit.emplace(ropts.order, width);
      // Per-point chain-rule scratch for the pole-sensitivity pass.
      std::vector<std::vector<double>> dm_point;
      std::vector<bool> all_active;
      if (opts.pole_sensitivities) {
        dm_point.assign(nm, std::vector<double>(nsym, 0.0));
        all_active.assign(nsym, true);
      }
      for (std::size_t b = begin; b < end; b += width) {
        // Deadline check once per batch: a cancelled sweep stops doing new
        // work here, quarantines the rest of its chunk as kDeadline, and
        // frees its pool slot instead of running to completion.
        if (opts.cancel && opts.cancel->cancelled()) {
          mark_deadline_points(b, end, res.ok, res.ladder_stage, res.fail_class);
          break;
        }
        const std::size_t w = std::min(width, end - b);
        if (want_grads) {
          // One gradient-program run yields moments AND all gradients (the
          // stream embeds the primal outputs), keeping the forward path's
          // disjoint-slot writes and strict bit-identity.
          model.moments_and_gradients_batch(
              std::span<const double>(res.points.data() + b, res.points.size() - b), n, w, ws,
              std::span<double>(res.moments.data() + b, res.moments.size() - b), n,
              std::span<double>(res.gradients.data() + b, res.gradients.size() - b), n,
              std::span<unsigned char>(res.ok.data() + b, w), opts.mode);
        } else {
          model.moments_batch(
              std::span<const double>(res.points.data() + b, res.points.size() - b), n, w, ws,
              std::span<double>(res.moments.data() + b, res.moments.size() - b), n,
              std::span<unsigned char>(res.ok.data() + b, w), opts.mode);
        }
        // The evaluation rung runs for the whole block before the fit: a
        // fast-mode strict re-eval rewrites its lane, and afterwards ok[p]
        // is set exactly on the points whose moments the fit may use.
        for (std::size_t p = b; p < b + w; ++p) {
          const FitOutcome ev = eval_ladder_point(model, res.points, res.moments, res.ok, nm, n,
                                                  p, opts.mode, ws1, hr.strict_reevals);
          res.ladder_stage[p] = static_cast<std::uint8_t>(ev.stage);
          res.fail_class[p] = static_cast<std::uint8_t>(ev.fail);
        }
        if (need_rom)
          fit_block(ropts, res.moments.data(), res.ok, b, w, opts.pass_predicate, res, *fit,
                    lane, hr);
        for (std::size_t p = b; p < b + w && opts.pole_sensitivities; ++p) {
          if (res.fail_class[p] == static_cast<std::uint8_t>(health::FailClass::kNone)) {
            // Chain this point's moment gradients through the Padé/Hankel
            // system.  Pure per-point work on disjoint slots, so the sweep
            // determinism guarantee is untouched; a singular Hankel system
            // or non-finite gradients leave NaN rows and a 0 flag.
            bool finite = lanes_finite(res.moments, nm, n, p);
            for (std::size_t i = 0; i < nsym && finite; ++i)
              for (std::size_t k = 0; k < nm; ++k) {
                const double g = res.gradients[(i * nm + k) * n + p];
                if (!std::isfinite(g)) {
                  finite = false;
                  break;
                }
                dm_point[k][i] = g;
              }
            if (finite) {
              for (std::size_t k = 0; k < nm; ++k) lane[k] = res.moments[k * n + p];
              try {
                const auto pz = engine::pole_zero_sensitivities_from_dm(
                    lane, dm_point, all_active, ropts.order);
                SensitivitySamples& ss = *res.sensitivities;
                const std::size_t nj = std::min(pz.poles.size(), ss.max_order);
                for (std::size_t j = 0; j < nj; ++j)
                  for (std::size_t i = 0; i < nsym; ++i)
                    ss.dpole[(p * ss.max_order + j) * nsym + i] = pz.dpole[j][i];
                ss.ok[p] = 1;
              } catch (const std::runtime_error&) {
                // Singular Hankel system: the flag stays 0 and the point's
                // rows stay NaN — skip-not-fail, like the fuzz oracles.
              }
            }
          }
        }
      }
    });
  } catch (const health::FailError&) {
    contain_task_failure(res.fail_class, res.ladder_stage, res.ok);
  }
  for (const health::HealthReport& hr : worker_health) {
    res.health.strict_reevals += hr.strict_reevals;
    res.health.order_fallbacks += hr.order_fallbacks;
    res.health.shifted_refits += hr.shifted_refits;
  }

  finalize_result(res);
  return res;
}

SweepResult run_sweep(const core::SharedModelStore& store, std::vector<double> points,
                      std::size_t num_points, const SweepOptions& opts) {
  // One pin for the whole sweep: every batch of every worker evaluates the
  // same generation, and the pin keeps its region mapped even if any
  // number of publishes land while we run.
  const std::shared_ptr<const core::CompiledModel> pinned = store.acquire();
  if (!pinned)
    throw std::runtime_error("run_sweep: model store '" + store.name() +
                             "' has no published model");
  return run_sweep(*pinned, std::move(points), num_points, opts);
}

std::vector<SweepResult> run_sweep(const core::MultiOutputModel& model,
                                   std::vector<double> points, std::size_t num_points,
                                   const SweepOptions& opts) {
  const std::size_t nsym = model.symbol_count();
  const std::size_t nm = model.moment_count();
  const std::size_t nout = model.output_count();
  if (points.size() != nsym * num_points)
    throw std::invalid_argument("run_sweep: points.size() must be symbol_count*num_points");
  if (opts.gradients || opts.pole_sensitivities)
    throw std::invalid_argument(
        "run_sweep: gradients are supported for single-output models only");
  const std::size_t n = num_points;

  std::vector<SweepResult> results(nout);
  const bool need_rom = opts.with_rom || static_cast<bool>(opts.pass_predicate);
  for (std::size_t o = 0; o < nout; ++o) {
    SweepResult& r = results[o];
    r.num_points = n;
    r.num_symbols = nsym;
    r.num_moments = nm;
    r.points = points;
    r.ok.assign(n, 1);
    r.ladder_stage.assign(n, 0);
    r.fail_class.assign(n, kUnprocessed);
    if (need_rom) r.rom = make_rom_samples(n, model.order());
    if (opts.pass_predicate) r.pass.assign(n, 0);
  }
  // All outputs' moments in one SoA block so a single shared program pass
  // fills every output; rows are handed to the per-output results after.
  std::vector<double> all(nout * nm * n, 0.0);
  std::vector<std::uint8_t> ok(n, 1);

  if (n > 0) {
    std::optional<ThreadPool> local;
    ThreadPool* pool = opts.pool;
    if (!pool) pool = &local.emplace(opts.threads);
    const std::size_t width = std::max<std::size_t>(1, opts.batch_width);
    const engine::RomOptions ropts = rom_options(model.options());

    // Ladder counters per (chunk, output); strict re-evals recompute every
    // output of the point at once, so that count is shared per chunk and
    // credited to each output's report after the join.
    struct WorkerHealth {
      std::uint64_t strict_reevals = 0;
      std::vector<health::HealthReport> per_output;
    };
    std::vector<WorkerHealth> worker_health(pool->size());
    for (WorkerHealth& wh : worker_health) wh.per_output.resize(nout);

    try {
      pool->parallel_chunks(n, [&](std::size_t worker, std::size_t begin, std::size_t end) {
        WorkerHealth& wh = worker_health[worker];
        core::BatchWorkspace ws = model.make_batch_workspace(width);
        std::optional<core::BatchWorkspace> ws1;
        std::vector<double> lane(nm);
        std::optional<ChunkFit> fit;
        if (need_rom) fit.emplace(ropts.order, width);
        for (std::size_t b = begin; b < end; b += width) {
          if (opts.cancel && opts.cancel->cancelled()) {
            for (std::size_t o = 0; o < nout; ++o)
              mark_deadline_points(b, end, ok, results[o].ladder_stage,
                                   results[o].fail_class);
            break;
          }
          const std::size_t w = std::min(width, end - b);
          model.moments_batch(std::span<const double>(points.data() + b, points.size() - b),
                              n, w, ws, std::span<double>(all.data() + b, all.size() - b), n,
                              std::span<unsigned char>(ok.data() + b, w), opts.mode);
          for (std::size_t p = b; p < b + w; ++p) {
            const FitOutcome ev = eval_ladder_point(model, points, all, ok, nout * nm, n, p,
                                                    opts.mode, ws1, wh.strict_reevals);
            for (std::size_t o = 0; o < nout; ++o) {
              results[o].ladder_stage[p] = static_cast<std::uint8_t>(ev.stage);
              results[o].fail_class[p] = static_cast<std::uint8_t>(ev.fail);
            }
          }
          for (std::size_t o = 0; o < nout && need_rom; ++o)
            fit_block(ropts, all.data() + o * nm * n, ok, b, w, opts.pass_predicate, results[o],
                      *fit, lane, wh.per_output[o]);
        }
      });
    } catch (const health::FailError&) {
      for (std::size_t o = 0; o < nout; ++o)
        contain_task_failure(results[o].fail_class, results[o].ladder_stage, ok);
    }
    for (const WorkerHealth& wh : worker_health) {
      for (std::size_t o = 0; o < nout; ++o) {
        results[o].health.strict_reevals += wh.strict_reevals;
        results[o].health.order_fallbacks += wh.per_output[o].order_fallbacks;
        results[o].health.shifted_refits += wh.per_output[o].shifted_refits;
      }
    }
  }

  for (std::size_t o = 0; o < nout; ++o) {
    SweepResult& r = results[o];
    r.moments.assign(all.begin() + static_cast<std::ptrdiff_t>(o * nm * n),
                     all.begin() + static_cast<std::ptrdiff_t>((o + 1) * nm * n));
    r.ok = ok;
    finalize_result(r);
  }
  return results;
}

// -- drivers -------------------------------------------------------------

std::vector<double> sample_points(std::span<const Distribution> distributions,
                                  std::size_t n, std::uint64_t seed) {
  std::vector<double> pts(distributions.size() * n);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < distributions.size(); ++i) {
    const Distribution& d = distributions[i];
    double* const row = pts.data() + i * n;
    switch (d.kind) {
      case Distribution::Kind::kNormal: {
        std::normal_distribution<double> dist(d.a, d.b);
        for (std::size_t p = 0; p < n; ++p) row[p] = dist(rng);
        break;
      }
      case Distribution::Kind::kUniform: {
        std::uniform_real_distribution<double> dist(d.a, d.b);
        for (std::size_t p = 0; p < n; ++p) row[p] = dist(rng);
        break;
      }
      case Distribution::Kind::kLogNormal: {
        if (d.a <= 0.0)
          throw std::invalid_argument("sample_points: lognormal median must be > 0");
        std::normal_distribution<double> dist(0.0, d.b);
        for (std::size_t p = 0; p < n; ++p) row[p] = d.a * std::exp(dist(rng));
        break;
      }
    }
  }
  return pts;
}

SweepResult monte_carlo(const core::CompiledModel& model,
                        std::span<const Distribution> distributions, std::size_t n,
                        std::uint64_t seed, const SweepOptions& opts) {
  if (distributions.size() != model.symbol_count())
    throw std::invalid_argument("monte_carlo: one distribution per model symbol required");
  return run_sweep(model, sample_points(distributions, n, seed), n, opts);
}

std::vector<double> grid_points(std::span<const Axis> axes, std::size_t& num_points_out) {
  std::size_t n = 1;
  for (const Axis& ax : axes) {
    if (ax.count == 0) throw std::invalid_argument("grid_points: axis count must be >= 1");
    if (ax.log_scale && (ax.lo <= 0.0) != (ax.hi <= 0.0))
      throw std::invalid_argument("grid_points: log axis endpoints must share a sign");
    n *= ax.count;
  }
  num_points_out = n;
  std::vector<double> pts(axes.size() * n);
  for (std::size_t p = 0; p < n; ++p) {
    // Row-major decode, last axis fastest.
    std::size_t rem = p;
    for (std::size_t i = axes.size(); i-- > 0;) {
      const Axis& ax = axes[i];
      const std::size_t j = rem % ax.count;
      rem /= ax.count;
      double v = ax.lo;
      if (ax.count > 1) {
        const double t = static_cast<double>(j) / static_cast<double>(ax.count - 1);
        v = ax.log_scale ? ax.lo * std::pow(ax.hi / ax.lo, t) : ax.lo + (ax.hi - ax.lo) * t;
      }
      pts[i * n + p] = v;
    }
  }
  return pts;
}

SweepResult grid_sweep(const core::CompiledModel& model, std::span<const Axis> axes,
                       const SweepOptions& opts) {
  if (axes.size() != model.symbol_count())
    throw std::invalid_argument("grid_sweep: one axis per model symbol required");
  std::size_t n = 0;
  std::vector<double> pts = grid_points(axes, n);
  return run_sweep(model, std::move(pts), n, opts);
}

SweepResult corners(const core::CompiledModel& model, std::span<const Corner> extremes,
                    const SweepOptions& opts) {
  if (extremes.size() != model.symbol_count())
    throw std::invalid_argument("corners: one lo/hi pair per model symbol required");
  if (extremes.size() > 24)
    throw std::invalid_argument("corners: 2^nsym explodes past 24 symbols; use monte_carlo");
  const std::size_t n = std::size_t{1} << extremes.size();
  std::vector<double> pts(extremes.size() * n);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t i = 0; i < extremes.size(); ++i)
      pts[i * n + p] = (p >> i) & 1 ? extremes[i].hi : extremes[i].lo;
  return run_sweep(model, std::move(pts), n, opts);
}

}  // namespace awe::sweep
