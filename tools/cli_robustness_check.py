#!/usr/bin/env python3
"""CLI hardening checks (DESIGN.md §16.5): SIGPIPE and health-JSON exits.

Every tool must (a) survive a consumer that closes the pipe early —
``awesym_cli --dump-moments - | head`` is success, not a SIGPIPE death —
and (b) flush well-formed ``--health-json`` on EVERY exit path: normal
runs, usage errors, unreadable decks, thrown build errors.

Also (c): every usage error exits 2 with the reason (naming the flag) and
the usage text: flags of removed features, so a stale script fails loudly
instead of quietly running something else; malformed values (the whole
token must parse); unknown flags and a second deck.

Usage:
  cli_robustness_check.py --awesym-cli BIN --awe-build BIN --awe-opt BIN \
      --awe-fuzz BIN --awe-serve BIN --awe-loadgen BIN --deck DECK \
      --workdir DIR
"""
import argparse
import json
import os
import signal
import subprocess
import sys


def check(cond, what):
    if not cond:
        raise SystemExit("FAIL: " + what)
    print("ok: " + what)


def run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, **kw)


def run_piped_to_closed_reader(cmd, lines=2):
    """Run cmd with stdout piped to a reader that exits after `lines` lines
    (the `| head` shape).  Returns the producer's exit status."""
    reader = subprocess.Popen(
        ["head", "-n", str(lines)], stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL)
    producer = subprocess.Popen(cmd, stdout=reader.stdin,
                                stderr=subprocess.DEVNULL)
    reader.stdin.close()
    reader.wait(timeout=120)
    producer.wait(timeout=120)
    return producer.returncode


def run_into_closed_pipe(cmd):
    """Run cmd with stdout on a pipe whose reader is already gone, so its
    first write fails.  Returns its exit status (negative: a signal)."""
    r, w = os.pipe()
    os.close(r)
    try:
        return subprocess.run(cmd, stdout=w, stderr=subprocess.DEVNULL,
                              timeout=120).returncode
    finally:
        os.close(w)


def load_health(path, what):
    check(os.path.exists(path), what + " (file exists)")
    with open(path) as f:
        doc = json.load(f)
    check("fail_classes" in doc and "points" in doc,
          what + " (well-formed report)")
    return doc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--awesym-cli", required=True)
    ap.add_argument("--awe-build", required=True)
    ap.add_argument("--awe-opt", required=True)
    ap.add_argument("--awe-fuzz", required=True)
    ap.add_argument("--awe-serve", required=True)
    ap.add_argument("--awe-loadgen", required=True)
    ap.add_argument("--deck", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    h = lambda name: os.path.join(args.workdir, name + ".json")
    cache = os.path.join(args.workdir, "cache")

    # --- SIGPIPE: a consumed-enough pipe is success, not a signal death ---
    rc = run_piped_to_closed_reader(
        [args.awesym_cli, args.deck, "--mc", "4096", "--dump-moments", "-"])
    check(rc == 0, "awesym_cli --dump-moments | head exits 0 (got %s)" % rc)

    rc = run_piped_to_closed_reader(
        [args.awe_build, "--cache-dir", cache, "--health-json", "-",
         args.deck], lines=1)
    check(rc == 0, "awe_build --health-json - | head exits 0 (got %s)" % rc)

    rc = run_piped_to_closed_reader(
        [args.awe_opt, "--measure", "pole1", "--mc", "64", "--grad-dump", "-",
         args.deck], lines=2)
    check(rc == 0, "awe_opt --grad-dump - | head exits 0 (got %s)" % rc)

    # awe_fuzz writes its report and summary after the whole campaign; a
    # consumer gone by then ends the output, and the exit status still
    # follows the mismatch rule.
    for quiet in ([], ["--quiet"]):
        rc = run_into_closed_pipe(
            [args.awe_fuzz, "--count", "5", "--seed", "7"] + quiet)
        check(rc == 0, "awe_fuzz %s| closed reader exits 0 (got %s)"
              % ("".join(q + " " for q in quiet), rc))

    # Signal deaths would be negative returncodes; belt-and-braces.
    check(rc != -signal.SIGPIPE, "no tool died of SIGPIPE")

    # --- health JSON on every exit path ----------------------------------
    # Normal run.
    r = run([args.awesym_cli, args.deck, "--mc", "64",
             "--health-json", h("cli_ok")])
    check(r.returncode == 0, "awesym_cli normal run exits 0")
    doc = load_health(h("cli_ok"), "awesym_cli normal-run health JSON")
    check(doc["points"]["total"] == 64, "normal-run health counts the sweep")

    # Usage error: flag soup must still flush valid JSON before exit 2.
    r = run([args.awesym_cli, "--definitely-not-a-flag",
             "--health-json", h("cli_usage")])
    check(r.returncode == 2, "awesym_cli usage error exits 2")
    load_health(h("cli_usage"), "awesym_cli usage-error health JSON")

    # Unreadable deck.
    r = run([args.awesym_cli, os.path.join(args.workdir, "missing.sp"),
             "--health-json", h("cli_nodeck")])
    check(r.returncode == 1, "awesym_cli missing deck exits 1")
    load_health(h("cli_nodeck"), "awesym_cli missing-deck health JSON")

    r = run([args.awe_build, "--cache-dir", cache,
             os.path.join(args.workdir, "missing.sp"),
             "--health-json", h("build_nodeck")])
    check(r.returncode == 2, "awe_build missing deck exits 2")
    load_health(h("build_nodeck"), "awe_build missing-deck health JSON")

    r = run([args.awe_build, "--health-json", h("build_usage")])
    check(r.returncode == 2, "awe_build usage error exits 2")
    load_health(h("build_usage"), "awe_build usage-error health JSON")

    # Thrown build error records its fail class in the report.
    r = run([args.awe_opt, "--measure", "pole1",
             os.path.join(args.workdir, "missing.sp"),
             "--health-json", h("opt_nodeck")])
    check(r.returncode == 2, "awe_opt missing deck exits 2")
    doc = load_health(h("opt_nodeck"), "awe_opt missing-deck health JSON")
    check(sum(doc["fail_classes"].values()) >= 1,
          "awe_opt early-exit report records a fail class")

    # --- usage errors: exit 2, the reason names the flag, the usage text
    # follows, and the health JSON is flushed where the tool has one.
    # Only usage paths of awe_serve: no daemon is started.
    missing = os.path.join(args.workdir, "missing.sp")
    usage_errors = [
        # (what, text the reason must contain, health file or None, command)
        # Removed features: the native AOT backend, the v3 repacker, the
        # fused evaluation form, the threaded build and the shared-memory
        # model store.
        ("awe_build --native", "--native", "build_native",
         [args.awe_build, "--cache-dir", cache, "--native", args.deck]),
        ("awe_build --pack-v4", "--pack-v4", "build_pack_v4",
         [args.awe_build, "--pack-v4", cache]),
        ("awe_build --threads 4", "--threads", "build_threads",
         [args.awe_build, "--cache-dir", cache, "--threads", "4", args.deck]),
        ("awe_opt --native", "--native", "opt_native",
         [args.awe_opt, "--measure", "pole1", "--mc", "64", "--native",
          args.deck]),
        ("awesym_cli --backend native", "--backend", "cli_backend",
         [args.awesym_cli, args.deck, "--mc", "64", "--backend", "native"]),
        ("awe_fuzz --native", "--native", None,
         [args.awe_fuzz, "--count", "1", "--quiet", "--native"]),
        ("awe_opt --fast", "--fast", "opt_fast",
         [args.awe_opt, "--measure", "pole1", "--mc", "64", "--fast",
          args.deck]),
        ("awe_serve --shm X", "--shm", "serve_shm",
         [args.awe_serve, "--shm", "X"]),
        ("awesym_cli --shm X", "--shm", "cli_shm",
         [args.awesym_cli, args.deck, "--shm", "X"]),
        # Malformed values: the whole token must parse.
        ("awe_opt --mc abc", "--mc", "opt_mc",
         [args.awe_opt, "--measure", "pole1", "--mc", "abc", args.deck]),
        ("awe_opt --sigma nope", "--sigma", "opt_sigma",
         [args.awe_opt, "--mc", "64", "--sigma", "nope", args.deck]),
        ("awe_build --order 2x", "--order", "build_order",
         [args.awe_build, "--cache-dir", cache, "--order", "2x", args.deck]),
        ("awesym_cli deck --mc 8zz", "--mc", "cli_mc_8zz",
         [args.awesym_cli, args.deck, "--mc", "8zz"]),
        ("awesym_cli deck --mc abc", "--mc", "cli_mc_abc",
         [args.awesym_cli, args.deck, "--mc", "abc"]),
        ("awe_fuzz --count 3x", "--count", None,
         [args.awe_fuzz, "--count", "3x", "--quiet"]),
        # awesym_cli follows the same rules as the other tools.
        ("awesym_cli deck --order 0", "--order", "cli_order0",
         [args.awesym_cli, args.deck, "--order", "0"]),
        ("awesym_cli with a second deck", missing, "cli_two_decks",
         [args.awesym_cli, args.deck, missing]),
        # Unknown flags on the daemon and the load generator.
        ("awe_serve --definitely-not-a-flag", "--definitely-not-a-flag",
         "serve_usage", [args.awe_serve, "--definitely-not-a-flag"]),
        ("awe_loadgen --definitely-not-a-flag", "--definitely-not-a-flag",
         None, [args.awe_loadgen, "--definitely-not-a-flag"]),
    ]
    for what, named, name, cmd in usage_errors:
        if name and os.path.exists(h(name)):
            os.remove(h(name))
        r = run(cmd + (["--health-json", h(name)] if name else []))
        check(r.returncode == 2, what + " exits 2 (got %s)" % r.returncode)
        check("usage:" in r.stderr, what + " prints the usage text")
        check(named in r.stderr, what + " names " + named)
        if name:
            load_health(h(name), what + " health JSON")

    print("PASS: cli robustness checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
