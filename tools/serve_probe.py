#!/usr/bin/env python3
"""Fault-matrix driver for awe_serve (DESIGN.md §16).

Each scenario starts a daemon, speaks the raw line-delimited JSON protocol
over its unix socket, injects one fault, and asserts the daemon's counters
and survival.  Used by the tool_awe_serve_smoke ctest (smoke) and the
tool_awe_serve_probe ctest (all).

  serve_probe.py --serve BIN --loadgen BIN --deck FILE --workdir DIR SCENARIO

Scenarios: smoke slow-client oversized poisoned backpressure deadline
           watchdog failpoints reload kill9 drain
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time


class Probe:
    def __init__(self, args):
        self.args = args
        self.workdir = args.workdir
        os.makedirs(self.workdir, exist_ok=True)
        self.sock_path = os.path.join(self.workdir, "serve.sock")
        self.ready_file = os.path.join(self.workdir, "ready")
        self.health_file = os.path.join(self.workdir, "health.json")
        self.proc = None
        self.bufs = {}  # per-socket residue past the last consumed line

    # -- daemon lifecycle --------------------------------------------------

    def start(self, extra=(), env_extra=None, wait=True):
        for stale in (self.ready_file, self.sock_path):
            if os.path.exists(stale):
                os.unlink(stale)
        cmd = [
            self.args.serve,
            "--deck", self.args.deck,
            "--unix", self.sock_path,
            "--ready-file", self.ready_file,
            "--health-json", self.health_file,
        ] + list(extra)
        env = dict(os.environ)
        env.pop("AWE_FAILPOINTS", None)
        if env_extra:
            env.update(env_extra)
        self.proc = subprocess.Popen(cmd, env=env)
        if wait:
            self.wait_ready()
        return self.proc

    def wait_ready(self, timeout=30.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.proc.poll() is not None:
                raise SystemExit("FAIL: daemon exited during startup (rc=%d)"
                                 % self.proc.returncode)
            if os.path.exists(self.ready_file):
                return
            time.sleep(0.05)
        raise SystemExit("FAIL: daemon never became ready")

    def terminate(self, sig=signal.SIGTERM, timeout=30.0):
        self.proc.send_signal(sig)
        try:
            rc = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise SystemExit("FAIL: daemon did not exit after signal")
        return rc

    # -- protocol ----------------------------------------------------------

    def connect(self, timeout=30.0):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(timeout)
        s.connect(self.sock_path)
        return s

    @staticmethod
    def send_line(sock, obj):
        sock.sendall((json.dumps(obj) + "\n").encode())

    def read_line(self, sock, timeout=30.0):
        # Responses can coalesce into one recv(); keep the residue per
        # socket so back-to-back reads never drop a line.
        sock.settimeout(timeout)
        buf = self.bufs.get(sock, b"")
        while b"\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-response")
            buf += chunk
        line, _, rest = buf.partition(b"\n")
        self.bufs[sock] = rest
        return json.loads(line.decode())

    def request(self, sock, obj, timeout=30.0):
        self.send_line(sock, obj)
        return self.read_line(sock, timeout)

    def one_shot(self, obj, timeout=30.0):
        s = self.connect()
        try:
            return self.request(s, obj, timeout)
        finally:
            s.close()

    def status(self):
        return self.one_shot({"op": "status"})

    def loadgen(self, extra=()):
        cmd = [self.args.loadgen, "--unix", self.sock_path, "--json",
               "--quiet"] + list(extra)
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise SystemExit("FAIL: loadgen rc=%d stderr=%s"
                             % (out.returncode, out.stderr))
        return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        raise SystemExit("FAIL: " + what)
    print("ok: " + what)


def read_health(probe):
    with open(probe.health_file) as f:
        return json.load(f)


# -- scenarios -------------------------------------------------------------

def scenario_smoke(p):
    p.start(["--workers", "2", "--quiet"])
    r = p.one_shot({"op": "ping", "id": 7})
    check(r["ok"] and r["op"] == "ping" and r["id"] == 7, "ping answers with id echo")
    info = p.one_shot({"op": "info"})
    check(info["ok"] and len(info["symbols"]) >= 1, "info lists symbols")
    nsym = len(info["symbols"])
    point = info["nominal"]
    ev = p.one_shot({"op": "eval", "points": [point, point]})
    check(ev["ok"] and ev["num_points"] == 2 and ev["ok_points"] == 2,
          "explicit-points eval evaluates both points")
    check(len(ev["moments"]) == 2 and len(ev["moments"][0]) == info["moment_count"],
          "eval returns per-point moments")
    mc = p.one_shot({"op": "eval", "mc": 32, "seed": 5, "summary": True})
    check(mc["ok"] and mc["num_points"] == 32 and "moments" not in mc,
          "mc eval with summary omits moments")
    mc2 = p.one_shot({"op": "eval", "mc": 32, "seed": 5, "summary": True})
    check(mc["moment_stats"] == mc2["moment_stats"],
          "same (mc, seed) is deterministic")
    bad = p.one_shot({"op": "eval", "points": [[1.0] * (nsym + 3)]})
    check(not bad["ok"] and bad["error"] == "bad_request",
          "wrong-arity point is a bad_request, not a death")
    lg = p.loadgen(["--connections", "4", "--requests", "8", "--mc", "16",
                    "--summary"])
    check(lg["ok"] == 32 and not lg["transport_error"], "loadgen smoke all ok")
    st = p.status()
    check(st["stats"]["requests"] >= 35, "status counts admitted evals")
    check(st["generation"] == 1, "still on generation 1")
    rc = p.terminate()
    check(rc == 0, "SIGTERM drain exits 0")
    h = read_health(p)
    check(h["serve"]["requests"] >= 35, "health JSON carries serve counters")


def scenario_slow_client(p):
    p.start(["--read-stall-ms", "200", "--quiet"])
    s = p.connect()
    s.sendall(b'{"op":"ping"')  # start a line, never finish it
    time.sleep(1.0)
    # The daemon must have evicted us: either the (courtesy) error line
    # arrives and then EOF, or the socket just resets.
    try:
        data = s.recv(65536)
        while data and b"\n" not in data:
            data += s.recv(65536)
    except OSError:
        data = b""
    s.close()
    st = p.status()
    check(st["stats"]["evicted"] >= 1, "mid-line stall was evicted")
    r = p.one_shot({"op": "ping"})
    check(r["ok"], "daemon serves after evicting the slow client")
    check(p.terminate() == 0, "clean exit")


def scenario_oversized(p):
    p.start(["--max-line-bytes", "1024", "--quiet"])
    s = p.connect()
    s.sendall(b'{"op":"eval","points":[[' + b"1.0," * 4096 + b"1.0]]}\n")
    try:
        resp = p.read_line(s, timeout=10.0)
        check(not resp["ok"], "oversized request answered with an error")
    except OSError:
        pass  # eviction without a courtesy line is also acceptable
    s.close()
    st = p.status()
    check(st["stats"]["evicted"] >= 1, "oversized request evicted")
    check(p.one_shot({"op": "ping"})["ok"], "daemon serves after oversized request")
    check(p.terminate() == 0, "clean exit")


def scenario_poisoned(p):
    # thread_pool.task=once poisons exactly one sweep task: that request
    # must come back with quarantined points, not take the daemon down.
    p.start(["--workers", "1", "--quiet"],
            env_extra={"AWE_FAILPOINTS": "thread_pool.task=once"})
    ev = p.one_shot({"op": "eval", "mc": 64, "summary": True})
    check(ev["ok"] and ev["quarantined"] >= 1,
          "poisoned request contained as quarantined points")
    ev2 = p.one_shot({"op": "eval", "mc": 64, "summary": True})
    check(ev2["ok"] and ev2["quarantined"] == 0, "next request is clean")
    st = p.status()
    check(st["fail_classes"]["injected-fault"] >= 1
          or st["fail_classes"]["task-exception"] >= 1,
          "status records the injected fault class")
    check(p.terminate() == 0, "clean exit")


def scenario_backpressure(p):
    p.start(["--workers", "1", "--max-queue", "1", "--debug-ops", "--quiet"])
    a = p.connect()
    p.send_line(a, {"op": "sleep", "ms": 1500})
    deadline = time.time() + 5
    while time.time() < deadline:
        if p.status()["executing"] >= 1:
            break
        time.sleep(0.02)
    check(p.status()["executing"] >= 1, "sleep occupies the worker")
    b = p.connect()
    results = []
    for i in range(3):
        p.send_line(b, {"op": "eval", "mc": 8, "summary": True, "id": i})
    for _ in range(3):
        results.append(p.read_line(b, timeout=30.0))
    shed = [r for r in results if not r["ok"] and r["error"] == "overloaded"]
    check(len(shed) >= 1, "queue overflow sheds with overloaded")
    check(all("retry_after_ms" in r for r in shed), "shed carries retry_after_ms")
    p.read_line(a, timeout=30.0)  # sleep completes
    a.close()
    b.close()
    st = p.status()
    check(st["stats"]["shed"] >= 1, "status counts shed requests")
    check(p.terminate() == 0, "clean exit")


def scenario_deadline(p):
    p.start(["--workers", "1", "--debug-ops", "--quiet"])
    s = p.connect()
    r = p.request(s, {"op": "eval", "mc": 256, "summary": True,
                      "cancel_after_checks": 1})
    check(r["ok"] and r["deadline_expired"] and r["deadline_points"] >= 1,
          "mid-sweep expiry returns partial kDeadline accounting")
    check(r["num_points"] == r["ok_points"] + r["degraded"] + r["quarantined"],
          "partial result is fully accounted")
    r2 = p.request(s, {"op": "eval", "mc": 32, "summary": True})
    check(r2["ok"] and not r2["deadline_expired"],
          "same connection serves the next request cleanly")
    s.close()
    st = p.status()
    check(st["stats"]["deadline_expired"] == 1, "exactly one deadline expiry counted")
    check(st["fail_classes"]["deadline"] >= 1, "deadline fail class recorded")
    check(p.terminate() == 0, "clean exit")


def scenario_watchdog(p):
    p.start(["--workers", "1", "--debug-ops", "--watchdog",
             "--watchdog-interval-ms", "50", "--watchdog-grace-ms", "100",
             "--quiet"])
    t0 = time.time()
    r = p.one_shot({"op": "sleep", "ms": 30000}, timeout=30.0)
    elapsed = time.time() - t0
    check(r["ok"] and r["cancelled"], "watchdog cancelled the wedged worker")
    check(elapsed < 10.0, "wedge freed well before its natural end")
    st = p.status()
    check(st["stats"]["watchdog_kicks"] >= 1, "watchdog kick counted")
    check(p.one_shot({"op": "ping"})["ok"], "daemon serves after the kick")
    check(p.terminate() == 0, "clean exit")


def scenario_failpoints(p):
    # serve.accept=once: first accepted connection is dropped, second works.
    p.start(["--quiet"], env_extra={"AWE_FAILPOINTS": "serve.accept=once"})
    dropped = False
    try:
        p.one_shot({"op": "ping"}, timeout=5.0)
    except OSError:
        dropped = True
    check(dropped, "first connection dropped by serve.accept injection")
    r = p.one_shot({"op": "ping"})
    check(r["ok"], "connection after serve.accept injection works")
    st = p.status()
    check(st["stats"]["accept_faults"] == 1, "accept fault counted once")
    check(p.terminate() == 0, "clean exit after serve.accept")

    # serve.read=once: first request line triggers an injected read fault.
    p.start(["--quiet"], env_extra={"AWE_FAILPOINTS": "serve.read=once"})
    faulted = False
    try:
        p.one_shot({"op": "ping"}, timeout=5.0)
    except OSError:
        faulted = True
    check(faulted, "first read faulted by serve.read injection")
    check(p.one_shot({"op": "ping"})["ok"], "read after serve.read injection works")
    st = p.status()
    check(st["stats"]["evicted"] >= 1, "read fault evicted the connection")
    check(p.terminate() == 0, "clean exit after serve.read")

    # serve.swap=once: the first reload attempt fails, backoff retries win.
    p.start(["--reload-backoff-ms", "10", "--quiet"],
            env_extra={"AWE_FAILPOINTS": "serve.swap=once"})
    r = p.one_shot({"op": "reload"})
    check(r["ok"] and r["generation"] == 2 and r["attempts"] == 2,
          "reload succeeded on the retry after serve.swap")
    st = p.status()
    check(st["stats"]["reload_failures"] == 1 and st["stats"]["reloads_ok"] == 1,
          "one failed attempt, one success counted")
    check(p.one_shot({"op": "eval", "mc": 8, "summary": True})["generation"] == 2,
          "evals now pin the new generation")
    check(p.terminate() == 0, "clean exit after serve.swap")


def scenario_reload(p):
    p.start(["--workers", "2", "--quiet"])
    g1 = p.one_shot({"op": "eval", "mc": 32, "summary": True})
    check(g1["ok"] and g1["generation"] == 1, "first eval pins generation 1")
    # Hot swap while a concurrent eval stream runs: generations only move
    # forward and every response is internally consistent.
    import threading
    results = []
    def hammer():
        s = p.connect()
        for _ in range(10):
            results.append(p.request(s, {"op": "eval", "mc": 16, "summary": True}))
        s.close()
    t = threading.Thread(target=hammer)
    t.start()
    r = p.one_shot({"op": "reload"})
    check(r["ok"] and r["generation"] == 2, "reload publishes generation 2")
    t.join()
    gens = [r["generation"] for r in results if r.get("ok")]
    check(len(gens) == 10, "all concurrent evals answered during the swap")
    check(all(g in (1, 2) for g in gens) and sorted(gens) == gens,
          "generations seen by the stream are monotonic")
    final = p.one_shot({"op": "eval", "mc": 16, "summary": True})
    check(final["generation"] == 2, "post-swap evals use the new generation")
    check(p.terminate() == 0, "clean exit")


def scenario_kill9(p):
    cache = os.path.join(p.workdir, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    shm = "awe_probe_%d" % os.getpid()
    flags = ["--shm", shm, "--cache-dir", cache, "--quiet"]
    p.start(flags)
    check(p.one_shot({"op": "eval", "mc": 32, "summary": True})["ok"],
          "eval works before the crash")
    lg = subprocess.Popen([p.args.loadgen, "--unix", p.sock_path,
                           "--duration-ms", "4000", "--mc", "16", "--quiet"])
    time.sleep(0.5)
    p.proc.kill()  # SIGKILL mid-load: no drain, no cleanup
    p.proc.wait()
    lg.wait(timeout=30)  # loadgen must notice and exit, not hang
    # Restart against the SAME shm name, unix path, and cache directory.
    p.start(flags)
    check(p.one_shot({"op": "ping"})["ok"], "restart after kill -9 serves")
    ev = p.one_shot({"op": "eval", "mc": 32, "summary": True})
    check(ev["ok"] and ev["generation"] == 1, "restart republished generation 1")
    bad = [f for f in os.listdir(cache) if f.endswith(".bad")]
    check(not bad, "no .bad quarantine leakage after kill -9 (%r)" % bad)
    check(p.terminate() == 0, "clean exit after restart")


def scenario_drain(p):
    p.start(["--workers", "1", "--debug-ops", "--drain-timeout-ms", "10000",
             "--quiet"])
    a = p.connect()
    p.send_line(a, {"op": "sleep", "ms": 1000, "id": 1})
    deadline = time.time() + 5
    while time.time() < deadline and p.status()["executing"] < 1:
        time.sleep(0.02)
    b = p.connect()
    p.send_line(b, {"op": "eval", "mc": 16, "summary": True, "id": 2})
    time.sleep(0.1)  # let the eval reach the queue
    p.proc.send_signal(signal.SIGTERM)
    r1 = p.read_line(a, timeout=30.0)
    check(r1["ok"] and r1["id"] == 1, "in-flight sleep completed during drain")
    r2 = p.read_line(b, timeout=30.0)
    check(r2["ok"] and r2["id"] == 2, "queued eval answered during drain")
    rc = p.proc.wait(timeout=30)
    check(rc == 0, "drain exits 0")
    a.close()
    b.close()
    h = read_health(p)
    check(h["serve"]["requests"] >= 1, "drained daemon flushed health JSON")


SCENARIOS = {
    "smoke": scenario_smoke,
    "slow-client": scenario_slow_client,
    "oversized": scenario_oversized,
    "poisoned": scenario_poisoned,
    "backpressure": scenario_backpressure,
    "deadline": scenario_deadline,
    "watchdog": scenario_watchdog,
    "failpoints": scenario_failpoints,
    "reload": scenario_reload,
    "kill9": scenario_kill9,
    "drain": scenario_drain,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True)
    ap.add_argument("--loadgen", required=True)
    ap.add_argument("--deck", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("scenario", choices=sorted(SCENARIOS) + ["all"])
    args = ap.parse_args()

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    for name in names:
        print("=== scenario: %s ===" % name)
        probe = Probe(args)
        try:
            SCENARIOS[name](probe)
        finally:
            if probe.proc and probe.proc.poll() is None:
                probe.proc.kill()
                probe.proc.wait()
    print("PASS: %s" % ", ".join(names))


if __name__ == "__main__":
    main()
