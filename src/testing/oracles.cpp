#include "testing/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "awe/moments.hpp"
#include "awe/sensitivity.hpp"
#include "core/awesymbolic.hpp"
#include "engine/sweep.hpp"
#include "exact/exact_symbolic.hpp"
#include "text/json.hpp"

namespace awe::testing {
namespace {

/// Magnitude beyond which a moment set is treated as numerically
/// meaningless (the DC matrix is singular to working precision).
constexpr double kNearSingular = 1e100;

struct Path {
  bool ok = false;
  std::vector<double> m;
  std::string error;
  /// Why the path failed, when it did (kNone while ok).
  health::FailClass fail = health::FailClass::kNone;
};

Path run_path(const std::function<std::vector<double>()>& fn) {
  Path p;
  try {
    p.m = fn();
    p.ok = true;
    for (const double v : p.m)
      if (!std::isfinite(v)) {
        p.ok = false;
        p.error = "non-finite moments";
        p.fail = health::FailClass::kNonFiniteEval;
        p.m.clear();
        break;
      }
  } catch (const health::FailError& e) {
    p.error = e.what();
    p.fail = e.fail_class();
  } catch (const std::exception& e) {
    p.error = e.what();
    p.fail = health::FailClass::kUnknown;
  }
  return p;
}

/// Per-moment cancellation factors c_k = scale_k / |m_k| with
/// scale_k = |m_0| * tau^k, tau the dominant time constant inferred from
/// the reference moments.  c_k == 1 when no scale can be inferred.
std::vector<double> cancellation_factors(const std::vector<double>& ref) {
  std::vector<double> c(ref.size(), 1.0);
  if (ref.empty() || ref[0] == 0.0) return c;
  const double m0 = std::abs(ref[0]);
  double tau = 0.0;
  for (std::size_t k = 1; k < ref.size(); ++k)
    if (ref[k] != 0.0)
      tau = std::max(tau, std::pow(std::abs(ref[k]) / m0, 1.0 / static_cast<double>(k)));
  if (tau == 0.0) return c;
  double scale = m0;
  for (std::size_t k = 0; k < ref.size(); ++k) {
    if (ref[k] != 0.0) c[k] = std::max(1.0, scale / std::abs(ref[k]));
    scale *= tau;
  }
  return c;
}

/// Conservative upper bounds on the transfer magnitude and dominant time
/// constant, derived from the deck's element values.  Moments below
/// zero_tol of the natural magnitude m0_ub * tau_ub^k are roundoff noise
/// (e.g. the exact path's coefficient cancellation leaving 1e-25 where the
/// true moment is exactly zero) and must be skipped, not compared: no
/// relative tolerance can rescue a comparison against an exact 0.
struct DeckScale {
  double m0_ub = 1.0;   ///< bound on |H| (|Z| for current input)
  double tau_ub = 1.0;  ///< bound on the dominant time constant
};

DeckScale deck_scale(const circuit::Netlist& nl, const std::string& input) {
  using circuit::ElementKind;
  double r_sum = 0.0, r_min = 1e300, c_sum = 0.0, l_sum = 0.0, amp = 1.0;
  std::vector<double> gms, trans;
  bool current_input = false;
  for (const auto& e : nl.elements()) {
    switch (e.kind) {
      case ElementKind::kResistor:
        r_sum += e.value;
        r_min = std::min(r_min, e.value);
        break;
      case ElementKind::kConductance:
        if (e.value > 0.0) {
          r_sum += 1.0 / e.value;
          r_min = std::min(r_min, 1.0 / e.value);
        }
        break;
      case ElementKind::kCapacitor: c_sum += std::abs(e.value); break;
      case ElementKind::kInductor: l_sum += std::abs(e.value); break;
      case ElementKind::kVcvs:
      case ElementKind::kCccs: amp *= std::max(1.0, std::abs(e.value)); break;
      case ElementKind::kVccs: gms.push_back(std::abs(e.value)); break;
      case ElementKind::kCcvs:
        trans.push_back(std::abs(e.value));
        r_sum += std::abs(e.value);  // a transresistance scales like an R
        break;
      case ElementKind::kCurrentSource:
        if (e.name == input) current_input = true;
        break;
      default: break;
    }
  }
  if (r_min > 1e299) r_min = 1.0;
  if (r_sum == 0.0) r_sum = 1.0;
  for (const double gm : gms) amp *= std::max(1.0, gm * r_sum);
  for (const double r : trans) amp *= std::max(1.0, r / r_min);
  amp = std::min(amp, 1e8);

  DeckScale s;
  s.m0_ub = amp * (current_input ? r_sum : 1.0);
  s.tau_ub = 10.0 * (c_sum * r_sum + l_sum / r_min);
  // A purely resistive deck has all higher moments identically zero — any
  // nonzero value there is noise, so the floor must not decay with k.
  if (s.tau_ub == 0.0) s.tau_ub = 1.0;
  return s;
}

}  // namespace

const char* to_string(OracleStatus s) {
  switch (s) {
    case OracleStatus::kAgree: return "agree";
    case OracleStatus::kMismatch: return "mismatch";
    case OracleStatus::kIllConditioned: return "ill-conditioned";
    case OracleStatus::kSingular: return "singular";
  }
  return "?";
}

OracleResult run_oracles(const circuit::ParsedDeck& deck, const OracleOptions& opts) {
  if (deck.symbol_elements.empty() || deck.input_source.empty() ||
      deck.output_node.empty())
    throw std::invalid_argument(
        "run_oracles: deck needs .symbol, .input and .output directives");
  const auto out_node = deck.netlist.find_node(deck.output_node);
  if (!out_node)
    throw std::invalid_argument("run_oracles: unknown output node '" + deck.output_node +
                                "'");

  const std::size_t nm = 2 * opts.order;
  OracleResult res;

  // Symbol element values in deck directive order (the order every oracle
  // below is handed the symbol list in).
  std::vector<double> values;
  for (const auto& name : deck.symbol_elements) {
    const auto idx = deck.netlist.find_element(name);
    if (!idx)
      throw std::invalid_argument("run_oracles: unknown .symbol element '" + name + "'");
    values.push_back(deck.netlist.elements()[*idx].value);
  }

  // -- path 2: numeric AWE (MNA recursion) ------------------------------
  const Path awe_path = run_path([&] {
    engine::MomentGenerator gen(deck.netlist);
    return gen.transfer_moments(deck.input_source, *out_node, nm);
  });

  // -- path 1: exact symbolic -------------------------------------------
  const Path exact_path = run_path([&] {
    const auto xf = exact::exact_symbolic_transfer(deck.netlist, deck.symbol_elements,
                                                   deck.input_source, *out_node);
    return xf.moments(values, nm);
  });

  // -- paths 3 and 4 share the compiled model ----------------------------
  Path strict_path, sweep_path;
  std::string build_error;
  try {
    // With a cache_dir the model goes build -> store -> load -> use, and a
    // second save must reproduce the first byte stream; the loaded model
    // then drives strict and sweep, so any serializer defect shows up as
    // an oracle mismatch (the "fifth oracle").
    core::BuildOptions build_opts;
    build_opts.cache_dir = opts.cache_dir;
    auto model = core::CompiledModel::build(deck.netlist, deck.symbol_elements,
                                            deck.input_source, *out_node,
                                            {.order = opts.order}, build_opts);
    if (!opts.cache_dir.empty()) {
      std::ostringstream first, second;
      model.save(first);
      std::istringstream in(first.str());
      model = core::CompiledModel::load(in);
      model.save(second);
      if (first.str() != second.str())
        throw std::runtime_error(
            "model serializer not byte-stable (save->load->save differs)");
    }
    // The partitioner preserves the caller's symbol order; re-map by name
    // anyway so a future reordering cannot silently skew the comparison.
    std::vector<double> model_values(values.size());
    const auto names = model.symbol_names();
    for (std::size_t i = 0; i < names.size(); ++i)
      model_values[i] = deck.netlist.elements()[*deck.netlist.find_element(names[i])].value;

    strict_path = run_path([&] { return model.moments_at(model_values); });

    sweep_path = run_path([&] {
      sweep::SweepOptions sopts;
      sopts.threads = 1;
      sopts.batch_width = 8;
      const auto sr = sweep::run_sweep(model, model_values, 1, sopts);
      if (sr.ok_count != 1) throw std::runtime_error("sweep rejected the point");
      std::vector<double> out(nm);
      for (std::size_t k = 0; k < nm; ++k) out[k] = sr.moment(k, 0);
      return out;
    });

    try {
      const auto rom = model.evaluate(model_values);
      res.pade_ok = rom.order() >= 1;
    } catch (const std::exception&) {
      res.pade_ok = false;  // Padé instability: classified, never a failure
    }
  } catch (const std::exception& e) {
    build_error = e.what();
    strict_path.error = sweep_path.error = build_error;
    const health::FailClass fc = health::fail_class_of(e);
    strict_path.fail = sweep_path.fail = fc;
  }

  // -- fault injection (tests the detector, not the product) ------------
  if (opts.fault == FaultInjection::kPerturbSweepMoment0 && sweep_path.ok &&
      !sweep_path.m.empty())
    sweep_path.m[0] *= 1.0 + 0x1.0p-10;

  res.exact = exact_path.m;
  res.awe = awe_path.m;
  res.strict_c = strict_path.m;
  res.sweep = sweep_path.m;
  res.exact_error = exact_path.error;
  res.awe_error = awe_path.error;
  res.compiled_error = strict_path.error;
  for (const Path* p : std::initializer_list<const Path*>{
           &exact_path, &awe_path, &strict_path, &sweep_path})
    if (!p->ok) res.health.record_failure(p->fail);

  // -- classification ----------------------------------------------------
  if (!awe_path.ok && !exact_path.ok && !strict_path.ok) {
    res.status = OracleStatus::kSingular;
    res.detail = "all paths rejected the deck: " + awe_path.error;
    return res;
  }

  const Path& hub = awe_path.ok ? awe_path : (strict_path.ok ? strict_path : exact_path);
  double peak = 0.0;
  for (const double v : hub.m) peak = std::max(peak, std::abs(v));
  if (peak > kNearSingular) {
    res.status = OracleStatus::kIllConditioned;
    res.detail = "near-singular Y0: |m| peaks at " + json::exact(peak);
    return res;
  }

  const auto cancel = cancellation_factors(hub.m);
  for (const double c : cancel) res.worst_cancellation = std::max(res.worst_cancellation, c);

  // Absolute noise floor per moment order (see DeckScale above).
  const DeckScale scale = deck_scale(deck.netlist, deck.input_source);
  std::vector<double> floor(nm);
  double mag = opts.zero_tol * scale.m0_ub;
  for (std::size_t k = 0; k < nm; ++k) {
    floor[k] = mag;
    mag *= scale.tau_ub;
  }

  bool ill = false;
  std::string ill_detail;
  // One path failing while another succeeds is itself a differential
  // finding (unless everything points at ill-conditioning, handled above).
  auto require_ok = [&](const Path& p, const char* label) {
    if (!p.ok && res.status == OracleStatus::kAgree) {
      res.status = OracleStatus::kMismatch;
      // The FailClass code is part of the signature: the shrinker must not
      // turn e.g. a hankel-ill-conditioned failure into a singular-y0 one.
      res.mismatch_kind =
          std::string(label) + " failed [" + health::code(p.fail) + "]";
      res.detail = std::string(label) + " failed while " +
                   (awe_path.ok ? "awe" : (strict_path.ok ? "strict" : "exact")) +
                   " succeeded: " + p.error;
    }
  };

  auto compare = [&](const Path& a, const Path& b, const char* la, const char* lb,
                     double tol, double tol_cap) {
    if (!a.ok || !b.ok || res.status != OracleStatus::kAgree) return;
    for (std::size_t k = 0; k < nm && k < a.m.size() && k < b.m.size(); ++k) {
      const double denom = std::max(std::abs(a.m[k]), std::abs(b.m[k]));
      if (denom == 0.0) continue;
      if (denom <= floor[k]) {
        ++res.moments_skipped;  // below the deck's roundoff noise floor
        continue;
      }
      const double c = k < cancel.size() ? cancel[k] : 1.0;
      if (c > opts.cancel_skip) {
        ++res.moments_skipped;
        continue;
      }
      ++res.moments_compared;
      const double err = std::abs(a.m[k] - b.m[k]) / denom;
      res.max_rel_err = std::max(res.max_rel_err, err);
      const double tol_eff = tol * std::clamp(c, 1.0, tol_cap);
      if (err <= tol_eff) continue;
      std::ostringstream why;
      why << la << " vs " << lb << " at moment " << k << ": " << json::exact(a.m[k]) << " vs "
          << json::exact(b.m[k]) << " (rel err " << json::exact(err) << ", cancellation "
          << json::exact(c) << ")";
      if (c > opts.ill_limit) {
        ill = true;
        if (ill_detail.empty()) ill_detail = why.str();
      } else {
        res.status = OracleStatus::kMismatch;
        res.mismatch_kind = std::string(la) + " vs " + lb;
        res.detail = why.str();
        return;
      }
    }
  };

  compare(exact_path, awe_path, "exact", "awe", opts.cross_tol, opts.ill_limit);
  compare(awe_path, strict_path, "awe", "strict", opts.cross_tol, opts.ill_limit);

  // The sweep engine guarantees bit-identical results to the count-1 lane
  // block — compared exactly, no tolerance.
  if (strict_path.ok && sweep_path.ok && res.status == OracleStatus::kAgree) {
    for (std::size_t k = 0; k < nm; ++k) {
      if (strict_path.m[k] == sweep_path.m[k]) continue;
      res.status = OracleStatus::kMismatch;
      res.mismatch_kind = "sweep not bit-identical";
      res.detail = "sweep is not bit-identical to the count-1 lane block at moment " +
                   std::to_string(k) + ": " + json::exact(strict_path.m[k]) + " vs " +
                   json::exact(sweep_path.m[k]);
      return res;
    }
  }

  require_ok(exact_path, "exact");
  require_ok(awe_path, "awe");
  require_ok(strict_path, "strict");
  require_ok(sweep_path, "sweep");

  // -- path 6: reverse-mode gradients (only on cleanly agreeing cases) ---
  if (opts.gradients && res.status == OracleStatus::kAgree && !ill &&
      strict_path.ok) {
    try {
      const auto gmodel = core::CompiledModel::build(
          deck.netlist, deck.symbol_elements, deck.input_source, *out_node,
          {.order = opts.order, .with_gradients = true});
      const auto names = gmodel.symbol_names();
      std::vector<double> gvalues(names.size());
      for (std::size_t i = 0; i < names.size(); ++i)
        gvalues[i] =
            deck.netlist.elements()[*deck.netlist.find_element(names[i])].value;

      const auto mg = gmodel.moments_and_gradients(gvalues);
      // The gradient stream embeds the primal outputs and computes them in
      // the same strict instruction order as the forward program, so the
      // moments of the gradient run must be BIT-identical to the strict
      // path — no tolerance (DESIGN.md §14).
      for (std::size_t k = 0; k < nm; ++k) {
        if (mg.moments[k] == strict_path.m[k]) continue;
        res.status = OracleStatus::kMismatch;
        res.mismatch_kind = "gradient primal not bit-identical";
        res.detail = "gradient program's embedded moment " + std::to_string(k) +
                     " differs from forward strict: " + json::exact(mg.moments[k]) +
                     " vs " + json::exact(strict_path.m[k]);
        return res;
      }

      engine::MomentGenerator gen(deck.netlist);
      const auto ms =
          engine::moment_sensitivities(gen, deck.input_source, *out_node, nm);
      for (std::size_t i = 0;
           i < names.size() && res.status == OracleStatus::kAgree; ++i) {
        const std::size_t eidx = *deck.netlist.find_element(names[i]);
        if (!ms.differentiable[eidx]) {
          // Skip, never fail: the adjoint declares this element's value
          // non-differentiable (e.g. a controlled-source gain outside the
          // supported set), so there is no second mechanism to check the
          // reverse-mode number against.
          res.gradient_skips += nm;
          continue;
        }
        // Central FD of the forward strict path, relative step.
        const double h = 1e-6 * std::abs(gvalues[i]);
        auto hi = gvalues, lo = gvalues;
        hi[i] += h;
        lo[i] -= h;
        const auto mh = gmodel.moments_at(hi);
        const auto mlo = gmodel.moments_at(lo);
        for (std::size_t k = 0; k < nm; ++k) {
          // Gradient noise floor: the moment floor divided by the value,
          // i.e. the same scale the gradient inherits by dimensions.
          const double gfloor = floor[k] / std::max(std::abs(gvalues[i]), 1e-300);
          const double c = k < cancel.size() ? cancel[k] : 1.0;
          const double rev = mg.dm[k][i];
          const double adj = ms.dm[k][eidx];
          const double fd = (mh[k] - mlo[k]) / (2.0 * h);
          const double denom_a = std::max(std::abs(rev), std::abs(adj));
          if (denom_a <= gfloor || c > opts.cancel_skip) {
            ++res.gradient_skips;
            continue;
          }
          ++res.gradient_checks;
          // Reverse vs adjoint: two machine-precision machineries, held to
          // the cross-path tolerance widened by the moment's cancellation.
          const double err_a = std::abs(rev - adj) / denom_a;
          if (err_a > opts.cross_tol * std::clamp(c, 1.0, opts.ill_limit)) {
            res.status = OracleStatus::kMismatch;
            res.mismatch_kind = "gradient reverse vs adjoint";
            std::ostringstream why;
            why << "reverse-mode vs adjoint d(m_" << k << ")/d(" << names[i]
                << "): " << json::exact(rev) << " vs " << json::exact(adj) << " (rel err "
                << json::exact(err_a) << ", cancellation " << json::exact(c) << ")";
            res.detail = why.str();
            break;
          }
          // Reverse vs FD: truncation + subtraction noise dominate, so the
          // tolerance is loose and floor-padded — FD is the independent
          // sanity check, not the precision reference.
          const double err_f =
              std::abs(rev - fd) / std::max(denom_a, std::abs(fd));
          if (err_f > 1e-3 * std::clamp(c, 1.0, opts.ill_limit) &&
              std::abs(rev - fd) > 1e3 * gfloor) {
            res.status = OracleStatus::kMismatch;
            res.mismatch_kind = "gradient reverse vs fd";
            std::ostringstream why;
            why << "reverse-mode vs central FD d(m_" << k << ")/d(" << names[i]
                << "): " << json::exact(rev) << " vs " << json::exact(fd) << " (rel err "
                << json::exact(err_f) << ", cancellation " << json::exact(c) << ")";
            res.detail = why.str();
            break;
          }
        }
      }
      res.gradients_ran = true;
    } catch (const std::exception& e) {
      // Build/eval failure of the gradient rebuild on a deck every other
      // path accepted: skip-not-fail, but leave the reason visible.
      res.gradients_error = e.what();
      res.health.record_failure(health::fail_class_of(e));
    }
  }

  if (res.status == OracleStatus::kAgree && ill) {
    res.status = OracleStatus::kIllConditioned;
    res.detail = ill_detail;
  }
  return res;
}

}  // namespace awe::testing
