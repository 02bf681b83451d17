#!/usr/bin/env python3
"""Perf gate for the benchmark suite.

Compares gated counters of fresh google-benchmark JSON runs against the
committed BENCH_baseline.json and fails on a regression beyond the
threshold.  Two counter families are gated by default:

  norm_ops_per_s  (bench_sweep_scaling)      anchored to BM_ScalarLoop
  builds_per_s    (bench_coupled_setup_cost) anchored to BM_BuildCold

Usage:
  check_bench_gate.py RESULTS.json [RESULTS2.json ...] BASELINE.json
                      [--threshold 0.35] [--gate COUNTER[:ANCHOR] ...]
                      [--expect-zero COUNTER ...] [--no-anchor] [--update]

--expect-zero gates a health counter rather than a rate: every RESULTS row
carrying it must report exactly 0 (e.g. degraded_points — the sweep
engine's degradation ladder must never fire on the golden example decks).
It checks the fresh results only; the baseline plays no part.

Exit codes: 0 = pass, 1 = regression or missing benchmark, 2 = bad input.

Several results files (one per benchmark binary) are merged into one run
before gating; the last positional argument is always the baseline.  Each
--gate names a counter and the benchmark whose counter anchors it;
repeat the flag to gate several families, or omit it for the defaults
above.  The legacy --counter/--anchor pair is still accepted and defines
a single gate.

By default every counter is divided by the same run's anchor benchmark
before comparing, so the gated quantity is a speedup STRUCTURE on the
same machine (interpreter speedup over the scalar loop; threaded-build,
warm-cache and incremental-edit speedup over a cold serial build) — a committed baseline
then transfers across runners of different absolute speed.  --no-anchor
compares raw counter values (only sensible on dedicated, stable
hardware).

The default threshold is deliberately loose (35%): shared CI runners have
noisy throughput even after anchoring, and the gate's job is to catch
*structural* regressions (an interpreter de-optimization, a fusion pass
that stopped firing, a cache probe that silently started rebuilding), not
5% jitter.  Tighten it only with dedicated hardware.

To regenerate the baseline after an intentional perf change:
  AWE_BENCH_TABLE=0 bench/bench_sweep_scaling \
      --benchmark_out=sweep.json --benchmark_out_format=json
  AWE_BENCH_TABLE=0 bench/bench_coupled_setup_cost \
      --benchmark_out=build.json --benchmark_out_format=json
  python3 bench/check_bench_gate.py sweep.json build.json \
      BENCH_baseline.json --update
"""

import argparse
import json
import math
import sys


def load_rows(path):
    """Benchmark rows of one google-benchmark JSON file (no aggregates)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = [b for b in doc.get("benchmarks", [])
            if b.get("run_type") != "aggregate" and b.get("name")]
    if not rows:
        print(f"error: no benchmark rows in {path}", file=sys.stderr)
        sys.exit(2)
    return doc, rows


def merge_rows(paths):
    """Merge several runs into one name -> row map (later files win)."""
    merged = {}
    for path in paths:
        _, rows = load_rows(path)
        for b in rows:
            merged[b["name"]] = b
    return merged


def counter_table(rows, counter, origin):
    """Map benchmark name -> counter value for rows that carry it."""
    out = {name: float(b[counter]) for name, b in rows.items()
           if b.get(counter) is not None}
    if not out:
        print(f"error: no '{counter}' counters found in {origin}",
              file=sys.stderr)
        sys.exit(2)
    return out


def gate_one(counter, anchor, cur_rows, base_rows, threshold, use_anchor):
    """Gate one counter family; returns the list of failing benchmarks."""
    cur = counter_table(cur_rows, counter, "results")
    base = counter_table(base_rows, counter, "baseline")

    if use_anchor:
        for origin, table in (("results", cur), ("baseline", base)):
            a = table.get(anchor)
            if not a:
                print(f"error: anchor '{anchor}' missing from {origin}",
                      file=sys.stderr)
                sys.exit(2)
            for k in table:
                table[k] /= a
        cur.pop(anchor, None)
        base.pop(anchor, None)
        print(f"(counters anchored to {anchor} within each run)")

    # A gate whose counter exists on no baseline row beyond the anchor
    # would otherwise gate nothing and "pass" vacuously (or crash on the
    # width computation): refuse loudly instead — the --gate spec or the
    # committed baseline is wrong.
    if not base:
        print(f"error: counter '{counter}' has no gated baseline rows "
              f"(beyond the anchor); wrong --gate or stale baseline?",
              file=sys.stderr)
        sys.exit(2)

    failures = []
    width = max(len(n) for n in set(base) | set(cur))
    print(f"perf gate on '{counter}' (fail below "
          f"{(1.0 - threshold) * 100:.0f}% of baseline):")
    for name in sorted(base):
        b = base[name]
        c = cur.get(name)
        if c is None:
            failures.append(name)
            print(f"  FAIL {name:<{width}}  missing from results")
            continue
        ratio = c / b if b > 0 else math.inf
        ok = ratio >= 1.0 - threshold
        tag = "ok  " if ok else "FAIL"
        print(f"  {tag} {name:<{width}}  {c:.3e} vs {b:.3e}  ({ratio:6.2%})")
        if not ok:
            failures.append(name)
    for name in sorted(set(cur) - set(base)):
        print(f"  note {name:<{width}}  not in baseline (run --update to adopt)")
    return failures


def dominates(spec, cur_rows):
    """Results-only ordering gate: WINNER's counter must exceed LOSER's.

    Spec is WINNER,LOSER[,COUNTER[,FACTOR]] (counter defaults to
    norm_ops_per_s, factor to 1.0; comma-separated because
    google-benchmark row names contain colons).  The gate passes when
    winner > factor * loser, so FACTOR asserts a minimum speedup — e.g.
    the incremental rebuild must beat a cold build by at least 10x.
    Both rows come from the same fresh run, so no anchoring is needed —
    the comparison is within-machine by construction.  Used to assert
    structural superiority claims, e.g. a gradient sweep keeping at least
    0.4x the forward sweep's point rate.
    """
    parts = spec.split(",")
    if len(parts) not in (2, 3, 4) or not all(parts):
        print(f"error: bad --dominates '{spec}' "
              f"(want WINNER,LOSER[,COUNTER[,FACTOR]])", file=sys.stderr)
        sys.exit(2)
    winner, loser = parts[0], parts[1]
    counter = parts[2] if len(parts) >= 3 else "norm_ops_per_s"
    try:
        factor = float(parts[3]) if len(parts) == 4 else 1.0
    except ValueError:
        factor = -1.0
    if factor <= 0.0 or not math.isfinite(factor):
        print(f"error: bad --dominates factor in '{spec}' "
              f"(want a positive number)", file=sys.stderr)
        sys.exit(2)
    values = {}
    for name in (winner, loser):
        row = cur_rows.get(name)
        if row is None or row.get(counter) is None:
            print(f"error: --dominates: no '{counter}' for '{name}' in results",
                  file=sys.stderr)
            sys.exit(2)
        values[name] = float(row[counter])
    ok = values[winner] > factor * values[loser]
    ratio = values[winner] / values[loser] if values[loser] > 0 else math.inf
    print(f"dominance gate on '{counter}' (need winner > {factor:g}x loser):")
    print(f"  {'ok  ' if ok else 'FAIL'} {winner} ({values[winner]:.3e}) "
          f"{'>' if ok else '<='} {factor:g} x {loser} ({values[loser]:.3e})"
          f"  ({ratio:.2f}x)")
    return [] if ok else [f"{winner} !> {factor:g}*{loser}"]


def expect_zero(counter, cur_rows):
    """Fail every results row whose `counter` is nonzero (results-only)."""
    carriers = {name: float(b[counter]) for name, b in cur_rows.items()
                if b.get(counter) is not None}
    if not carriers:
        print(f"error: --expect-zero '{counter}': no results row carries it",
              file=sys.stderr)
        sys.exit(2)
    failures = []
    width = max(len(n) for n in carriers)
    print(f"zero gate on '{counter}' (any nonzero value fails):")
    for name in sorted(carriers):
        v = carriers[name]
        ok = v == 0.0
        print(f"  {'ok  ' if ok else 'FAIL'} {name:<{width}}  {v:g}")
        if not ok:
            failures.append(name)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", nargs="+",
                    help="fresh --benchmark_out JSON file(s), baseline last")
    ap.add_argument("baseline", help="committed BENCH_baseline.json")
    ap.add_argument("--threshold", type=float, default=0.35,
                    help="max allowed fractional drop vs baseline (default 0.35)")
    ap.add_argument("--gate", action="append", metavar="COUNTER[:ANCHOR]",
                    help="counter family to gate, with its anchor benchmark; "
                         "repeatable (default: norm_ops_per_s:BM_ScalarLoop "
                         "and builds_per_s:BM_BuildCold)")
    ap.add_argument("--counter", default=None,
                    help="legacy: single counter to gate on")
    ap.add_argument("--anchor", default="BM_ScalarLoop",
                    help="legacy: anchor for --counter (default BM_ScalarLoop)")
    ap.add_argument("--expect-zero", action="append", metavar="COUNTER",
                    default=[],
                    help="health counter that must be exactly 0 in every "
                         "results row carrying it; repeatable")
    ap.add_argument("--dominates", action="append",
                    metavar="WINNER,LOSER[,COUNTER[,FACTOR]]",
                    default=[],
                    help="results-only ordering gate: WINNER's counter "
                         "(default norm_ops_per_s) must exceed FACTOR "
                         "(default 1.0) times LOSER's in the fresh run; "
                         "repeatable")
    ap.add_argument("--no-anchor", action="store_true",
                    help="gate on raw counter values instead of "
                         "anchor-relative ratios")
    ap.add_argument("--update", action="store_true",
                    help="write merged RESULTS over BASELINE instead of gating")
    args = ap.parse_args()

    if args.update:
        doc, _ = load_rows(args.results[0])
        merged = merge_rows(args.results)
        doc["benchmarks"] = list(merged.values())
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        print(f"baseline updated: {args.baseline} "
              f"({len(merged)} benchmarks from {len(args.results)} run(s))")
        return 0

    if args.counter is not None:
        gates = [(args.counter, args.anchor)]
    else:
        specs = args.gate or ["norm_ops_per_s:BM_ScalarLoop",
                              "builds_per_s:BM_BuildCold"]
        gates = []
        for spec in specs:
            counter, sep, anchor = spec.partition(":")
            if not counter or (not args.no_anchor and not anchor):
                print(f"error: bad --gate '{spec}' (want COUNTER:ANCHOR)",
                      file=sys.stderr)
                sys.exit(2)
            gates.append((counter, anchor))

    cur_rows = merge_rows(args.results)
    base_rows = merge_rows([args.baseline])

    failures = []
    for i, (counter, anchor) in enumerate(gates):
        if i:
            print()
        failures += gate_one(counter, anchor, cur_rows, base_rows,
                             args.threshold, not args.no_anchor)
    zero_failures = []
    for counter in args.expect_zero:
        print()
        zero_failures += expect_zero(counter, cur_rows)
    dom_failures = []
    for spec in args.dominates:
        print()
        dom_failures += dominates(spec, cur_rows)

    if failures or zero_failures or dom_failures:
        if failures:
            print(f"\nFAILED: {len(failures)} benchmark(s) regressed beyond "
                  f"{args.threshold:.0%}. If intentional, regenerate the "
                  f"baseline (see --help).", file=sys.stderr)
        if zero_failures:
            print(f"\nFAILED: {len(zero_failures)} benchmark(s) reported a "
                  f"nonzero health counter that must be 0.", file=sys.stderr)
        if dom_failures:
            print(f"\nFAILED: {len(dom_failures)} dominance gate(s) not met: "
                  f"{'; '.join(dom_failures)}.", file=sys.stderr)
        return 1
    print("\nPASSED: all benchmarks within threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
