#!/usr/bin/env python3
"""Determinism matrix (DESIGN.md §11, §13-§15): every way of building,
opening and running a model must give the same bytes.

One deck list (examples/decks/*.sp + tests/corpus/*.sp), one thread list
(1, 4, 8) and one table of rows, each printing one ``ok:`` line.  Byte
comparisons go through same_bytes(), which names the first differing
offset.  Row families: incremental (edit vs cold build), backing (heap vs
--mmap), gradient, cache, fault (torn and crashed cache entries,
--map-audit), containment (one per failpoint site) and fuzz.  Every
failpoint site in src/health/failpoints.hpp must be named by a row, except
serve.*, which serve_probe.py's failpoints scenario arms.

Usage:
  determinism_matrix.py --awesym-cli BIN --awe-build BIN --awe-opt BIN \
      --awe-fuzz BIN --workdir DIR
"""
import argparse
import functools
import glob
import json
import os
import re
import shutil
import sys
import time

from cli_robustness_check import check, run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = sorted(glob.glob(os.path.join(REPO, "tests", "corpus", "*.sp")))
DECKS = {os.path.basename(p)[:-3]: p for p in sorted(glob.glob(
    os.path.join(REPO, "examples", "decks", "*.sp"))) + CORPUS}
TWOPOLE = DECKS["twopole"]
THREADS = (1, 4, 8)

# The sites the containment rows arm.  The three store_* sites need a cold
# cache dir and load_corrupt a warm one, or they are never reached.
CONTAINMENT_SITES = (
    "linalg.lu_singular", "linalg.sparse_singular", "partition.moment_solve",
    "model_cache.store_truncate", "model_cache.store_bitflip",
    "model_cache.store_crash", "model_cache.load_corrupt", "thread_pool.task")


class RowFailed(Exception):
    pass


def need(cond, what):
    if not cond:
        raise RowFailed(what)


def same_bytes(a, b):
    with open(a, "rb") as f:
        x = f.read()
    with open(b, "rb") as f:
        y = f.read()
    if x != y:
        at = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q),
                  min(len(x), len(y)))
        raise RowFailed("%s and %s differ at byte %d (sizes %d and %d)"
                        % (a, b, at, len(x), len(y)))


def same_tree(a, b):
    """diff -r: the same file names, each with the same bytes."""
    def files(root):
        return sorted(os.path.relpath(os.path.join(d, f), root)
                      for d, _, names in os.walk(root) for f in names)
    need(files(a) == files(b), "%s and %s hold different files" % (a, b))
    for rel in files(a):
        same_bytes(os.path.join(a, rel), os.path.join(b, rel))


def contains(path, text):
    with open(path) as f:
        need(text in f.read(), "%s lacks %s" % (path, text))


def tool(cmd, site=None, rcs=(0,)):
    """Run cmd with no failpoint armed, or with `site` armed once."""
    env = dict(os.environ)
    env.pop("AWE_FAILPOINTS", None)
    if site:
        env["AWE_FAILPOINTS"] = site + "=once"
    cmd = [str(c) for c in cmd]
    r = run(cmd, env=env)
    need(r.returncode in rcs, "`%s` exited %d\n%s"
         % (" ".join(cmd), r.returncode, (r.stdout + r.stderr)[-2000:]))
    return r


def armed(site, cmd, health, rcs=(0,)):
    """Containment: the armed run ends in an allowed exit, never an abort,
    and its health JSON shows that the site fired."""
    r = tool(cmd + ["--health-json", health], site, rcs)
    out = r.stdout + r.stderr
    need(not re.search("terminate called|Segmentation fault", out),
         "%s aborted\n%s" % (site, out[-2000:]))
    with open(health) as f:
        fires = json.load(f)["failpoint_fires"]
    need(fires >= 1, "%s was never reached (failpoint_fires %d)"
         % (site, fires))


def build_rows(a):
    w = lambda *parts: os.path.join(a.workdir, *parts)
    cli, build, opt = a.awesym_cli, a.awe_build, a.awe_opt
    rows = []  # (name, fn, *args)

    def row(name):
        return lambda fn: rows.append((name, fn))

    # -- incremental (DESIGN.md §13): a one-element edit rebuilt against a
    # warm block store is byte-identical to a cold build of the edited deck.
    @functools.lru_cache(None)
    def cold_edit(n):
        tool([build, "--cache-dir", w("cold_" + n), "--quiet",
              "--edit-first-numeric", "1.1", "--save-model",
              w("cold_%s.bin" % n), DECKS[n]])
        return w("cold_%s.bin" % n)

    def incremental(n):
        d = w("inc_" + n)
        flags = ["--incremental", "--cache-dir", d, "--quiet"]
        tool([build] + flags + [DECKS[n]])
        need(glob.glob(os.path.join(d, "blocks", "*.aweblock")),
             "no .aweblock files in %s/blocks" % d)
        tool([build] + flags + ["--edit-first-numeric", "1.1",
                                "--save-model", d + ".bin", DECKS[n]])
        same_bytes(cold_edit(n), d + ".bin")

    # -- backing (§15): heap and mmap'd v5 cache entry give the same
    # moment dump.  The heap run warms the entry --mmap maps.
    def moments(n, t, out, via):
        tool([cli, DECKS[n], "--mc", 512, "--threads", t, "--dump-moments",
              w(out)] + via)
        return w(out)

    @functools.lru_cache(None)
    def heap(n):
        return moments(n, 1, "mm_%s_heap.txt" % n,
                       ["--cache-dir", w("mm_" + n)])

    def backing(n, t):
        same_bytes(heap(n), moments(n, t, "mm_%s_mmap_t%d.txt" % (n, t),
                                    ["--cache-dir", w("mm_" + n), "--mmap"]))

    # -- gradient (§14): the gradient dump is the same bytes heap or
    # mapped, and at every thread count.
    def grads(n, t, out, via=()):
        tool([opt, "--mc", 512, "--threads", t, "--quiet", "--grad-dump",
              w(out)] + list(via) + [DECKS[n]])
        return w(out)

    def gradient_mmap(n):
        via = ["--cache-dir", w("mmg_" + n)]
        same_bytes(grads(n, 4, "mmg_%s_heap.txt" % n, via),
                   grads(n, 4, "mmg_%s_mmap.txt" % n, via + ["--mmap"]))

    @functools.lru_cache(None)
    def grads_t1(n):
        return grads(n, 1, "grads_%s_t1.txt" % n)

    def gradient_threads(n, t):
        same_bytes(grads_t1(n), grads(n, t, "grads_%s_t%d.txt" % (n, t)))

    for n in DECKS:
        rows.append(("incremental %s" % n, incremental, n))
        rows += [("backing %s mmap t%d" % (n, t), backing, n, t)
                 for t in THREADS]
        rows.append(("gradient %s heap-vs-mmap" % n, gradient_mmap, n))
        rows += [("gradient %s t1-vs-t%d" % (n, t), gradient_threads, n, t)
                 for t in THREADS[1:]]

    # -- cache: the corpus built into two fresh caches is the same bytes,
    # and a warm pass loads every model instead of building it.
    @functools.lru_cache(None)
    def corpus_pass(cache):
        return tool([build, "--cache-dir", w(cache)] + CORPUS).stdout

    @row("cache corpus fresh caches identical")
    def _():
        corpus_pass("cache_a")
        corpus_pass("cache_b")
        same_tree(w("cache_a"), w("cache_b"))

    @row("cache corpus cold pass has 0 disk hits")
    def _():
        need(" 0 disk hits" in corpus_pass("cache_a"), corpus_pass("cache_a"))

    @row("cache corpus warm pass has 0 cold builds")
    def _():
        corpus_pass("cache_a")
        out = tool([build, "--cache-dir", w("cache_a")] + CORPUS).stdout
        need(" 0 cold builds" in out, out)

    # -- fault: a writer that dies mid-store leaves a torn file; the next
    # run quarantines it to .bad, rebuilds, and gives the reference bytes.
    # The edit targets r1, not the torn cell, whose key it would change.
    @row("fault cache.partition torn block quarantined and rebuilt")
    def _():
        d = w("fp_inc")
        armed("cache.partition", [build, "--cache-dir", d, "--incremental",
                                  "--quiet", TWOPOLE], w("health_torn_arm.json"))
        tool([build, "--cache-dir", d, "--incremental", "--quiet",
              "--edit", "r1=1100", "--save-model", w("inc_torn.bin"),
              "--health-json", w("health_torn.json"), TWOPOLE])
        need(glob.glob(os.path.join(d, "blocks", "*.aweblock.bad")),
             "no quarantined .aweblock.bad")
        contains(w("health_torn.json"), '"partition_blocks": '
                 '{"reused": 0, "built": 2, "quarantined": 1}')
        tool([build, "--cache-dir", w("cold_torn_dir"), "--quiet", "--edit",
              "r1=1100", "--save-model", w("cold_torn.bin"), TWOPOLE])
        same_bytes(w("cold_torn.bin"), w("inc_torn.bin"))

    @row("fault model_cache.store_truncate torn v5 entry refused by --mmap")
    def _():
        d = w("fp_mmap")
        mc = [cli, TWOPOLE, "--mc", 128]
        tool(mc + ["--dump-moments", w("fp_ref.txt")])
        armed("model_cache.store_truncate",
              mc + ["--cache-dir", d, "--dump-moments", os.devnull],
              w("health_torn_v5.json"))
        tool(mc + ["--cache-dir", d, "--mmap", "--dump-moments",
                   w("fp_mmap.txt")])
        need(glob.glob(os.path.join(d, "*.awemodel.bad")),
             "no quarantined .awemodel.bad")
        same_bytes(w("fp_ref.txt"), w("fp_mmap.txt"))

    @row("fault model_cache.store_crash quarantined and rebuilt")
    def _():
        d = w("fp_cache")
        armed("model_cache.store_crash", [build, "--cache-dir", d, TWOPOLE],
              w("health_crash_arm.json"))
        tool([build, "--cache-dir", d, TWOPOLE, "--health-json",
              w("health_cache.json")])
        need(glob.glob(os.path.join(d, "*.awemodel.bad")), "no .awemodel.bad")
        need(glob.glob(os.path.join(d, "*.awemodel")), "no rebuilt .awemodel")
        contains(w("health_cache.json"),
                 '"cache": {"corrupt_quarantined": 1, "rebuilds": 1}')

    # --map-audit checksums what the lazy mmap path skips: it quarantines
    # a pre-v5 file (exit 2), leaves the v5 entry beside it unchanged, and
    # a second audit passes.
    @row("fault --map-audit quarantines a pre-v5 entry")
    def _():
        d = w("audit_cache")
        tool([cli, TWOPOLE, "--mc", 16, "--cache-dir", d, "--dump-moments",
              os.devnull])
        entries = glob.glob(os.path.join(d, "*.awemodel"))
        need(len(entries) == 1, "expected one v5 entry, got %s" % entries)
        shutil.copy(entries[0], w("audit_v5_before.awemodel"))
        fixture = os.path.join(d, "fixture_v4.awemodel")
        shutil.copy(os.path.join(REPO, "tests", "data", "golden_v4.awemodel"),
                    fixture)
        tool([build, "--map-audit", d], rcs=(2,))
        need(os.path.isfile(fixture + ".bad"), "fixture not quarantined")
        need(not os.path.exists(fixture), "fixture left in place")
        same_bytes(w("audit_v5_before.awemodel"), entries[0])
        tool([build, "--map-audit", d])

    # -- containment (§11): an armed site surfaces as a completed run with
    # the fault counted (exit 0) or a classified build error (exit 1).
    def containment(site):
        cmd = [cli, TWOPOLE, "--order", 2]
        if site.startswith("model_cache."):
            cmd += ["--cache-dir", w("fp_" + site)]
        if site == "model_cache.load_corrupt":
            tool(cmd + ["--mc", 16])
        armed(site, cmd + ["--mc", 2000, "--threads", 4],
              w("health_%s.json" % site), rcs=(0, 1))

    rows += [("containment " + s, containment, s) for s in CONTAINMENT_SITES]

    # -- fuzz: the whole campaign (generator, oracles, shrinker, report) is
    # deterministic, and the gradient oracle ran on every case.
    @row("fuzz seed 42 x200 run twice identical")
    def _():
        out = [w("fuzz_run%d.json" % i) for i in (1, 2)]
        for path in out:
            tool([a.awe_fuzz, "--count", 200, "--seed", 42, "--quiet",
                  "--gradients", "--json", path])
        same_bytes(*out)
        contains(out[0], '"gradients_checked": 200')
        contains(out[0], '"gradients_skipped": 0')

    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--awesym-cli", required=True)
    ap.add_argument("--awe-build", required=True)
    ap.add_argument("--awe-opt", required=True)
    ap.add_argument("--awe-fuzz", required=True)
    ap.add_argument("--workdir", required=True)
    a = ap.parse_args()
    shutil.rmtree(a.workdir, ignore_errors=True)
    os.makedirs(a.workdir)
    rows = build_rows(a)

    with open(os.path.join(REPO, "src", "health", "failpoints.hpp")) as f:
        block = re.search(r"namespace sites \{(.*?)\}", f.read(), re.S)
    sites = re.findall(r'= "([^"]+)";', block.group(1))
    named = {word for r in rows for word in r[0].split()}
    unrowed = [s for s in sites if s not in named and not s.startswith("serve.")]
    check(sites and not unrowed, "each of %d failpoint sites has a row%s"
          % (len(sites), unrowed and " (missing: %s)" % unrowed or ""))

    start = time.time()
    for name, fn, *args in rows:
        try:
            fn(*args)
        except RowFailed as e:
            check(False, "%s: %s" % (name, e))
        check(True, name)
    print("PASS: %d rows in %.1f s" % (len(rows), time.time() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
