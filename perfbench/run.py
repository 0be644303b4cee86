#!/usr/bin/env python3
"""The repo benchmark: cold and warm spec sweeps and a warm service round trip.

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a checkout; the program under test is the checkout's
own ``src/`` (``PYTHONPATH`` is pinned to it).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ledger (see README.md).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; a human-readable
table goes to standard error.  Everything the benchmark writes lives
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import ledger

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PYTHON = sys.executable

WORKLOADS = ("cold-sweep", "warm-prep-sweep", "warm-serve")
POLICIES = ["shared", "static-equal", "throughput", "model-based"]
# Figs. 19-21 slice at SystemConfig.default() scale: 4 threads, 50 x 20K.
SWEEP_GRID = {"apps": ["swim", "art", "equake"], "intervals": 50,
              "interval_instructions": 20_000}
# Every workload at seconds scale: 36 cells resolved per request.
SERVE_GRID = {"apps": ["applu", "art", "cg", "equake", "ft", "mg", "mgrid",
                       "swim", "wupwise"],
              "intervals": 5, "interval_instructions": 2000}
SETUP_REPEATS = 3
MIN_SWEEPS = 3          # untraced sweep processes per run, at least
MIN_RTT_SAMPLES = 200   # so that >= 10 round trips lie beyond p95
# Shown in the table but not a gated metric: on a shared host its
# run-to-run spread is far wider than any bound the contract allows.
SHOWN_ONLY = ("rtt_p95_ms",)
WARMUP_REQUESTS = 5
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """Set-up or harness failure: the run cannot produce a result."""


# -- processes ---------------------------------------------------------


def child_env(kernel_dir: Path, tmp_dir: Path) -> dict:
    """The program's environment: this checkout's sources, a kernel
    cache the benchmark owns, and a temp dir inside the checkout.  No
    cache backend is pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE"] = str(kernel_dir)
    env["TMPDIR"] = str(tmp_dir)
    return env


def run_process(argv: list[str], env: dict, out: Path) -> tuple[float, float, int]:
    """Spawn ``argv`` with stdout to ``out`` (stderr beside it) and wait.
    Returns (wall seconds spawn to exit, peak RSS in MB, exit code)."""
    with out.open("wb") as stdout, out.with_suffix(".err").open("wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=stdout, stderr=stderr, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def repro_argv(args: list[str], spans: Path | None = None) -> list[str]:
    """``python -m repro ARGS``, or the traced entry point when ``spans``
    names where its spans go."""
    if spans is None:
        return [PYTHON, "-m", "repro", *args]
    return [PYTHON, str(HERE / "traced_entry.py"), str(spans), *args]


def build_kernel(kernel_dir: Path, tmp_dir: Path) -> None:
    """Build the compiled replay kernel into ``kernel_dir`` (and byte-
    compile the modules a run imports), so neither lands in a timed run."""
    code = ("import sys, repro.__main__, repro.spec.run, repro.serve.service\n"
            "from repro.cache.batchkernel import kernel_available\n"
            "sys.exit(0 if kernel_available() else 3)\n")
    proc = subprocess.run([PYTHON, "-c", code], env=child_env(kernel_dir, tmp_dir),
                          cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode == 3:
        log("set-up: no C compiler; the compiled replay kernel is unavailable")
    elif proc.returncode != 0:
        raise BenchError(f"kernel build failed: {proc.stderr.decode(errors='replace')}")


def calibrate_host() -> float:
    """Milliseconds for a fixed CPU-bound loop (median of three).  Shown
    so host drift is visible; never used to rescale a metric."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# -- grids and the reference oracle -------------------------------------


def spec_document(grid: dict, seed: int, policies=POLICIES) -> dict:
    return {"spec_version": 1, "name": "perfbench",
            "grid": {"apps": grid["apps"], "policies": policies, "seeds": [seed],
                     "thread_counts": [4], "baseline": "shared"},
            "config": {"intervals": grid["intervals"],
                       "interval_instructions": grid["interval_instructions"]}}


def summarize(sweep: dict) -> dict:
    """The order-free part of a sweep's aggregates that must match the
    oracle: every cell's simulated cycles and the mean speedups."""
    cells = {}
    for c in sweep["cells"]:
        key = f"{c['app']}/{c['policy']}/{c['seed']}/{c['n_threads']}"
        cells[key] = None if c["error"] else c["total_cycles"]
    speedups = {policy: dict(sorted(apps.items()))
                for policy, apps in sweep["mean_speedups"].items()}
    return {"cells": cells, "mean_speedups": speedups}


def mismatches(sweep: dict, oracle: dict) -> int:
    """Cells of ``sweep`` that failed or differ from the oracle; every
    cell counts when the speedup aggregates differ."""
    got = summarize(sweep)
    if got["mean_speedups"] != oracle["mean_speedups"]:
        return len(oracle["cells"])
    bad = sum(1 for k, v in oracle["cells"].items() if got["cells"].get(k) != v)
    return bad + sum(1 for k in got["cells"] if k not in oracle["cells"])


def oracle_for(name: str, grid: dict, seed: int) -> dict:
    """Aggregates of the ``reference`` backend for this grid and seed:
    checked in for seed 1, otherwise computed once and cached."""
    filename = f"{name}-seed{seed}.json"
    for path in (HERE / "expected" / filename, WORK / "oracle" / filename):
        if path.is_file():
            return json.loads(path.read_text())
    log(f"oracle: computing reference aggregates for {name}, seed {seed}")
    scratch = WORK / f"oracle-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "tmp").mkdir(parents=True)
    try:
        document = spec_document(grid, seed)
        document["config"]["cache_backend"] = "reference"
        # Untimed, so both cores may work; the pool engine's results are
        # byte-identical to the serial engine's.
        document["engine"] = {"jobs": 2}
        spec = scratch / "spec.json"
        spec.write_text(json.dumps(document))
        out = scratch / "out.json"
        argv = repro_argv(["run-spec", str(spec), "--cache-dir", str(scratch / "store"),
                           "--json"])
        _, _, code = run_process(argv, child_env(scratch / "kernel", scratch / "tmp"), out)
        if code != 0:
            raise BenchError(f"reference oracle run failed (exit {code})")
        oracle = summarize(json.loads(out.read_text()))
        oracle["model"] = ledger.model_counts(scratch / "store")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    target = WORK / "oracle" / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(oracle, indent=1, sort_keys=True))
    return oracle


# -- results -----------------------------------------------------------


class Tally:
    """Operations attempted and failed, and whether outputs were right."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(setup: list[float], walls: list[float], rss: float, instructions: int,
               rtts_ms: list[float]) -> dict:
    wall = statistics.median(walls)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "sim_minstr_per_s": (instructions / wall / 1e6, "Minstr/s"),
        "peak_rss_mb": (rss, "MB"),
        "rtt_p50_ms": (statistics.median(rtts_ms), "ms"),
        "rtt_p95_ms": (p95(rtts_ms), "ms"),
    }


# -- sweep workloads ---------------------------------------------------


class SweepWorkload:
    """``repro run-spec`` over the Figs. 19-21 slice as a real process.

    cold: each iteration starts with an empty prep store, result store and
    journal.  warm: prepared programs are filled during set-up; each
    iteration starts with an empty result store and journal.
    """

    def __init__(self, warm: bool, seed: int, run_dir: Path) -> None:
        self.warm = warm
        self.seed = seed
        self.run_dir = run_dir
        self.oracle = oracle_for("sweep", SWEEP_GRID, seed)
        self.spec = run_dir / "spec.json"
        self.spec.write_text(json.dumps(spec_document(SWEEP_GRID, seed)))
        self.prep_dir: Path | None = None
        self.env: dict = {}
        self.count = 0

    def set_up(self) -> float:
        """One complete set-up in fresh dirs; returns its wall time."""
        start = time.perf_counter()
        setup_dir = self.run_dir / f"setup-{self.count}"
        self.count += 1
        tmp = setup_dir / "tmp"
        tmp.mkdir(parents=True)
        build_kernel(setup_dir / "kernel", tmp)
        self.env = child_env(setup_dir / "kernel", tmp)
        if self.warm:
            fill = setup_dir / "fill.json"
            # The policy does not shape a prepared program: one policy
            # per app publishes every bundle the sweep will read.
            fill.write_text(json.dumps(
                spec_document(SWEEP_GRID, self.seed, policies=["shared"])))
            self.prep_dir = setup_dir / "prep"
            _, _, code = run_process(
                repro_argv(["run-spec", str(fill), "--prep-dir", str(self.prep_dir)]),
                self.env, setup_dir / "fill.out")
            if code != 0:
                raise BenchError(f"prep fill failed (exit {code})")
        return time.perf_counter() - start

    def iterate(self, tally: Tally, spans: bool = False) -> tuple[float, float, Path]:
        """One sweep process in fresh dirs; returns (wall, peak RSS, dir)."""
        it = self.run_dir / f"it-{self.count}"
        self.count += 1
        it.mkdir()
        prep = self.prep_dir if self.warm else it / "prep"
        args = ["run-spec", str(self.spec), "--cache-dir", str(it / "store"),
                "--prep-dir", str(prep), "--journal", str(it / "journal.jsonl"),
                "--json"]
        argv = repro_argv(args, it / "spans.json" if spans else None)
        os.sync()  # the previous iteration's writeback is not this one's cost
        wall, rss, code = run_process(argv, self.env, it / "out.json")
        cells = len(self.oracle["cells"])
        try:
            bad = cells if code != 0 else mismatches(
                json.loads((it / "out.json").read_text()), self.oracle)
        except (ValueError, KeyError):
            bad = cells
        if bad:
            log(f"{it.name}: {bad} cell(s) failed or differ from the reference oracle "
                f"(exit {code}); see {it / 'out.err'}")
        tally.add(cells, bad)
        return wall, rss, it

    def measure(self, seconds: float, tally: Tally) -> dict:
        setup = [self.set_up() for _ in range(SETUP_REPEATS)]
        walls, peaks = [], []
        start = time.perf_counter()
        # Start another process only if it should end within --seconds.
        while (len(walls) < MIN_SWEEPS
               or time.perf_counter() - start + walls[-1] <= seconds):
            wall, rss, it = self.iterate(tally)
            walls.append(wall)
            peaks.append(rss)
            shutil.rmtree(it, ignore_errors=True)
        log(f"sweep walls (s): {' '.join(f'{w:.3f}' for w in walls)}")
        ms = [w * 1e3 for w in walls]
        return end_to_end(setup, walls, statistics.median(peaks),
                          self.oracle["model"]["instructions"], ms)

    def trace(self, seconds: float, tally: Tally) -> dict:
        """Alternate untraced and traced processes; ledger per process."""
        self.set_up()
        plain, traced, ledgers = [], [], []
        start = time.perf_counter()
        # Start another pair only if it should end within --seconds.
        while (len(traced) < 2
               or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds):
            wall, _, it = self.iterate(tally)
            plain.append(wall)
            shutil.rmtree(it, ignore_errors=True)
            wall, _, it = self.iterate(tally, spans=True)
            traced.append(wall)
            layers = ledger.process_ledger(it / "spans.json", wall)
            layers.update(ledger.model_metrics(ledger.model_counts(it / "store"),
                                               layers))
            ledgers.append(layers)
            shutil.rmtree(it, ignore_errors=True)
        return ledger.combine(ledgers, plain, traced)


# -- service workload --------------------------------------------------


class Server:
    """One ``repro serve`` process on a free port with its own data dir."""

    def __init__(self, data_dir: Path, env: dict, spans: Path | None) -> None:
        data_dir.mkdir(parents=True, exist_ok=True)
        port_file = data_dir.parent / "port"
        port_file.unlink(missing_ok=True)
        self.out = data_dir.parent / "serve.out"
        self.spans = spans
        argv = repro_argv(["serve", "--port", "0", "--port-file", str(port_file),
                           "--data-dir", str(data_dir)], spans)
        with self.out.open("wb") as out:
            self.proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                         stderr=subprocess.STDOUT)
        self.peak_rss_mb = 0.0
        deadline = time.perf_counter() + 60
        try:
            while not (port_file.is_file() and port_file.read_text().strip()):
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise BenchError(f"repro serve did not start; see {self.out}")
                time.sleep(0.01)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.port = int(port_file.read_text())

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (the service drains and exits 0), then reap."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        watchdog = threading.Timer(30, self.proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


class ServeWorkload:
    """A closed loop of one client against a long-lived ``repro serve``.

    Every request submits the same 36 cells, already in the result
    store, under an application order no earlier request used: a new
    sweep id, so it resolves from the store instead of attaching to a
    retained sweep.
    """

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.oracle = oracle_for("serve", SERVE_GRID, seed)
        self.rng = random.Random(seed)
        self.used: set[tuple] = set()
        self.servers: list[Server] = []
        self.count = 0

    def payload(self, apps: list[str]) -> dict:
        return {"apps": apps, "policies": POLICIES, "seeds": [self.seed],
                "thread_counts": [4], "baseline": "shared",
                "intervals": SERVE_GRID["intervals"],
                "interval_instructions": SERVE_GRID["interval_instructions"],
                "client": "perfbench"}

    def next_apps(self) -> list[str]:
        while True:
            apps = list(SERVE_GRID["apps"])
            self.rng.shuffle(apps)
            if tuple(apps) not in self.used:
                self.used.add(tuple(apps))
                return apps

    def set_up(self, traced: bool = False) -> tuple[Server, float]:
        """Kernel build, store fill through one service, then the measured
        service started fresh on that data dir (so it retains no sweep and
        its memory and counters are the serving path's alone) and a few
        warm-up requests, in fresh dirs."""
        start = time.perf_counter()
        setup_dir = self.run_dir / f"setup-{self.count}"
        self.count += 1
        tmp = setup_dir / "tmp"
        tmp.mkdir(parents=True)
        build_kernel(setup_dir / "kernel", tmp)
        env = child_env(setup_dir / "kernel", tmp)
        filler = Server(setup_dir / "data", env, None)
        self.servers.append(filler)
        apps = list(SERVE_GRID["apps"])
        self.used.add(tuple(apps))
        status, body = filler.request("POST", "/v1/sweeps", self.payload(apps))
        if status not in (200, 202):
            raise BenchError(f"store fill rejected: {status} {body}")
        deadline = time.perf_counter() + 120
        while body.get("status") == "running" and time.perf_counter() < deadline:
            time.sleep(0.02)
            status, body = filler.request("GET", f"/v1/sweeps/{body['sweep_id']}")
        if body.get("status") != "done" or body.get("failures"):
            raise BenchError(f"store fill did not complete: {body.get('status')}")
        filler.stop()
        server = Server(setup_dir / "data", env, setup_dir / "spans.json" if traced else None)
        self.servers.append(server)
        for _ in range(WARMUP_REQUESTS):
            server.request("POST", "/v1/sweeps", self.payload(self.next_apps()))
        return server, time.perf_counter() - start

    def round_trip(self, server: Server, tally: Tally) -> tuple[float, float, float]:
        """One submission; returns (send time, receive time, RTT in ms).
        A refused request, one that executed any cell, or a result that
        differs from the oracle counts as failed."""
        body = self.payload(self.next_apps())
        sent = time.perf_counter()
        try:
            status, response = server.request("POST", "/v1/sweeps", body)
        except (OSError, http.client.HTTPException, ValueError):
            status, response = 0, {}
        received = time.perf_counter()
        ok = (status == 202 and response.get("status") == "done"
              and response.get("executed") == 0 and not response.get("attached")
              and "result" in response
              and mismatches(response["result"], self.oracle) == 0)
        if not ok:
            log(f"request failed: HTTP {status}, status={response.get('status')}, "
                f"executed={response.get('executed')}")
        tally.add(1, 0 if ok else 1)
        return sent, received, (received - sent) * 1e3

    def stop_all(self) -> None:
        for server in self.servers:
            server.stop()

    def measure(self, seconds: float, tally: Tally) -> dict:
        setup = []
        for _ in range(SETUP_REPEATS):
            server, wall = self.set_up()
            setup.append(wall)
            if len(setup) < SETUP_REPEATS:
                server.stop()
        rtts = []
        os.sync()  # journal fsyncs should not queue behind set-up writeback
        start = time.perf_counter()
        while len(rtts) < MIN_RTT_SAMPLES or time.perf_counter() - start < seconds:
            rtts.append(self.round_trip(server, tally)[2])
        server.stop()
        return end_to_end(setup, [r / 1e3 for r in rtts], server.peak_rss_mb,
                          self.oracle["model"]["instructions"], rtts)

    def trace(self, seconds: float, tally: Tally) -> dict:
        """Alternate requests between an untraced and a traced server;
        the ledger is per request on the traced one."""
        plain, _ = self.set_up()
        traced, _ = self.set_up(traced=True)
        plain_rtts, windows = [], []
        start = time.perf_counter()
        while len(windows) < MIN_RTT_SAMPLES or time.perf_counter() - start < seconds:
            plain_rtts.append(self.round_trip(plain, tally)[2])
            windows.append(self.round_trip(traced, tally))
        self.stop_all()
        layers = ledger.serve_ledger(traced.spans, windows)
        layers.update(ledger.model_metrics(
            ledger.model_counts(traced.spans.parent / "data" / "store"), layers))
        return ledger.combine([layers], plain_rtts, [w[2] for w in windows])


# -- driver ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally]:
    run_dir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    calib_ms = calibrate_host()
    log(f"{name}: seed {seed}, host.calib_ms {calib_ms:.1f}")
    tally = Tally()
    workload = (ServeWorkload(seed, run_dir) if name == "warm-serve"
                else SweepWorkload(name == "warm-prep-sweep", seed, run_dir))
    try:
        if trace:
            metrics = workload.trace(seconds, tally)
            metrics["host.calib_ms"] = (calib_ms, "ms")
            tally.problems = ledger.exercise_problems(
                name, metrics, workload.oracle["model"])
            for problem in tally.problems:
                log(f"{name}: layer check failed: {problem}")
        else:
            metrics = workload.measure(seconds, tally)
    finally:
        if isinstance(workload, ServeWorkload):
            workload.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, tally


def render(name: str, metrics: dict, tally: Tally) -> str:
    lines = [f"== {name}"]
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:32s} {value:14.6g} {unit}")
    frac = tally.failed / tally.attempted
    lines.append(f"  {'failed_frac':32s} {frac:14.6g} ratio "
                 f"({tally.failed}/{tally.attempted})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM still runs the clean-up that stops every server started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__main__.py").is_file():
        log(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            metrics, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, OSError, subprocess.SubprocessError) as exc:
            log(f"perfbench: {name}: {exc}")
            return 1
        log(render(name, metrics, tally))
        results[name] = {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                        if k not in SHOWN_ONLY},
        }
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
