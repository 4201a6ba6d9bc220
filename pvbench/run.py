#!/usr/bin/env python3
"""pauliverify benchmark: drives the real CLI in-process on seeded inputs.

Usage, from the root of a checkout:

    python3 pvbench/run.py --workload hyper-k --seed 1 --seconds 25 --trace 0

Load model: one client, one process, closed loop.  An op is one
``pauliverify.cli.main([...])`` call on a freshly generated target; ops run
back to back for ``--seconds`` seconds (at least MIN_OPS of them), after one
untimed warm-up op.  Generating inputs and checking outputs are untimed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced run of each op and prints the per-layer metrics from
the traced ones.  The last line of standard output is the result JSON; the
line before it records the context (versions, thread settings, output hash).
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"

# The program runs single-threaded: no sweep worker pool and one BLAS thread,
# which is within nproc on any machine and keeps timings steady.
BLAS_THREADS = "1"
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("hyper-k", "ground-runs", "circuit-sweep")

# Machine-speed calibration.  On a shared host the speed of one core drifts
# by up to 40% over seconds to minutes.  A fixed pure-Python loop, timed
# between ops and between set-up launches, tracks that drift: each op or
# launch is scaled to the speed at which the loop takes CAL_NOMINAL_S, using
# the mean of the loop times just before and just after it.  The raw,
# unscaled figures are in the context line.
CAL_LOOPS = 100_000
CAL_NOMINAL_S = 0.010

MIN_OPS = 11  # the tail percentile needs ten samples beyond it
HARD_LIMIT_S = 120.0  # stop timing ops past this even if MIN_OPS is not met
SETUP_LAUNCHES = 5
HASHED_OPS = 4  # the warm-up op and the first three timed ops

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics from the traced run, averaged per op.  "calls", "s"
# (inclusive seconds) and "self_s" read the span totals of a layer.
SPAN_METRICS = [
    ("protocol.run", "calls"), ("protocol.run", "self_s"),
    ("states.measure_in_bases", "calls"), ("states.measure_in_bases", "self_s"),
    ("single_copy.adaptive_predicate", "calls"), ("single_copy.adaptive_predicate", "self_s"),
    ("hypergraphs.bases", "calls"), ("hypergraphs.bases", "self_s"),
    ("hypergraphs.branch_for_bits", "calls"),
    ("single_copy.draw_pauli_term", "calls"), ("single_copy.draw_pauli_term", "self_s"),
    ("single_copy.parity_passes", "self_s"),
    ("paulis.axes", "calls"), ("paulis.axes", "self_s"),
    ("states.mixed_state", "calls"), ("states.mixed_state", "s"),
    ("protocol.prover", "s"),
    ("states.fidelity", "s"),
    ("hamiltonians.rescale", "calls"), ("hamiltonians.rescale", "self_s"),
    ("hamiltonians.exact_diagonalize", "calls"), ("hamiltonians.exact_diagonalize", "s"),
    ("hamiltonians.ground_state", "calls"), ("hamiltonians.ground_state", "s"),
    ("circuits.decompose", "calls"), ("circuits.decompose", "s"),
    ("circuits.build_circuit_state", "calls"), ("circuits.build_circuit_state", "s"),
    ("hypergraphs.all_adaptive_forms", "calls"), ("hypergraphs.all_adaptive_forms", "s"),
    ("hypergraphs.build_state", "calls"), ("hypergraphs.build_state", "s"),
    ("single_copy.exact_ppass", "calls"), ("single_copy.exact_ppass", "s"),
    ("analysis.binomial_tail", "calls"), ("analysis.binomial_tail", "s"),
    ("analysis.sweep", "self_s"),
    ("reporting.canonical_json", "s"),
    ("reporting.write_trials_csv", "s"),
    ("cli.main", "self_s"),
    ("cli.load_target", "s"),
]
# Counters taken by the tracer's hooks, averaged per op.
COUNTER_METRICS = [
    "protocol.trials", "states.born_tables", "reporting.bytes_out", "reporting.csv_rows",
]
RATIO_METRICS = [
    "states.born_table_reuse", "hamiltonians.diag_per_target",
    "circuits.prepare_per_target", "trace.overhead",
]


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{field}": ("count" if field == "calls" else "s")
             for layer, field in SPAN_METRICS}
    units.update({name: "count" for name in COUNTER_METRICS})
    units["reporting.bytes_out"] = "bytes"
    units.update({name: "ratio" for name in RATIO_METRICS})
    return units


# ---------------------------------------------------------------------------


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now: a probe of machine speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibration loops into nominal."""
    return 2 * CAL_NOMINAL_S / (before + after)


def measure_setup() -> tuple[float, float]:
    """Median time from a fresh interpreter's start until pauliverify.cli imported.

    Each launched interpreter runs the calibration loop just before and just
    after the import, so the launch is scaled by the speed it ran at.
    Returns the calibrated and the raw median.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import time\nCAL_LOOPS = {CAL_LOOPS}\n" + inspect.getsource(calibration_loop) + (
        "before = calibration_loop()\n"
        "import pauliverify.cli\n"
        "done = time.monotonic()\n"
        "print(done, before, calibration_loop())\n"
    )
    raw, calibrated = [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        done, before, after = map(float, out.stdout.split())
        raw.append(done - start - before)
        calibrated.append(raw[-1] * speed_scale(before, after))
    return statistics.median(calibrated), statistics.median(raw)


def trials_in(doc: dict) -> int:
    """Single-copy tests an op completed, counted from its report."""
    if doc.get("command") == "robustness":
        p = doc["params"]
        return sum(pt["runs"] for pt in doc["points"]) * p["n"] * p["k"]
    reports = doc["reports"] if "reports" in doc else [doc["report"]]
    return sum(g["trials"] for rep in reports for g in rep["groups"])


class Runner:
    def __init__(self, workload: str, seed: int):
        from pauliverify import cli
        import checks
        import workloads

        self.cli, self.checks = cli, checks
        self.generate = workloads.GENERATORS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.op1_output: bytes | None = None
        self.sha = hashlib.sha256()
        self.calibration: list[float] = []  # [i]: loop time before op i + 1

    def call(self, op) -> tuple[float, bytes, str | None]:
        """One timed CLI call; returns (seconds, output bytes, failure or None)."""
        for path in (op.out, op.csv):
            if path is not None and path.exists():
                path.unlink()
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that crashes is a failed op
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, b"", f"exit {code}"
        try:
            blob = b"".join(p.read_bytes() for p in (op.out, op.csv) if p is not None)
        except OSError as exc:
            return seconds, b"", f"exit 0 without its output: {exc}"
        return seconds, blob, None

    def check(self, op, failure: str | None, ppass) -> bool:
        if failure is None:
            out = op.out.read_text()
            csv = op.csv.read_text() if op.csv is not None else None
            problems = self.checks.check_output(op.expect, out, ppass, csv)
            failure = "; ".join(problems[:3]) if problems else None
        if failure is not None:
            self.failed += 1
            print(f"op {op.index} failed: {failure}", file=sys.stderr)
            return False
        return True

    def op(self, index: int):
        op = self.generate(self.seed, index, WORK.relative_to(ROOT))
        ppass = None
        if op.expect["kind"] != "circuit":
            ppass = self.checks.exact_ppass(op.expect)
        return op, ppass

    def record(self, op, blob: bytes) -> None:
        if op.index == 1:
            self.op1_output = blob
        if op.index < HASHED_OPS:
            self.sha.update(blob)

    def replay(self) -> None:
        """Run op 1 again with the same seed: the bytes must be identical."""
        op, _ = self.op(1)
        _, blob, failure = self.call(op)
        if failure is not None or blob != self.op1_output:
            self.failed += 1
            print("replay of op 1 did not reproduce its output bytes", file=sys.stderr)

    def warm_up(self) -> None:
        op, ppass = self.op(0)
        _, blob, failure = self.call(op)
        self.check(op, failure, ppass)
        self.record(op, blob)

    def timed_ops(self, seconds: float):
        """Ops 1, 2, ... until ``seconds`` have passed and MIN_OPS have run."""
        start = time.perf_counter()
        index = 1
        while True:
            self.calibration.append(calibration_loop())
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and index > MIN_OPS):
                return
            yield self.op(index)
            index += 1

    def scale(self, op) -> float:
        """Calibration factor of a timed op, from the loops around it."""
        return speed_scale(self.calibration[op.index - 1], self.calibration[op.index])


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup_s, raw_setup_s = measure_setup()
    runner.warm_up()
    done = []  # (op, seconds, trials) of every op that passed its checks
    for op, ppass in runner.timed_ops(seconds):
        dt, blob, failure = runner.call(op)
        if runner.check(op, failure, ppass):
            done.append((op, dt, trials_in(json.loads(op.out.read_text()))))
        runner.record(op, blob)
    runner.replay()
    if not done:
        raise SystemExit("pvbench: every op failed; there is nothing to time")

    tail_rank = max(len(done) - 11, 0)

    def summary(times, rates):
        ordered = sorted(times)
        return statistics.median(ordered), ordered[tail_rank], statistics.median(rates)

    scales = [runner.scale(op) for op, _, _ in done]
    p50, tail, rate = summary([dt * f for (_, dt, _), f in zip(done, scales)],
                              [n / (dt * f) for (_, dt, n), f in zip(done, scales)])
    raw_p50, raw_tail, raw_rate = summary([dt for _, dt, _ in done],
                                          [n / dt for _, dt, n in done])
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": p50,
        "op_tail_s": tail,
        "trials_per_s": rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    context = {
        "raw": {"setup_s": raw_setup_s, "op_p50_s": raw_p50, "op_tail_s": raw_tail,
                "trials_per_s": raw_rate},
        "speed_scale_median": statistics.median(scales),
        "ops_timed": len(done),
        "op_tail_percentile": round(100.0 * tail_rank / len(done), 1),
        "op_tail_samples_beyond": len(done) - 1 - tail_rank,
        "setup_launches": SETUP_LAUNCHES,
    }
    return metrics, context


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    runner.warm_up()
    plain, traced, kept = [], [], []
    for op, ppass in runner.timed_ops(seconds):
        dt, blob, failure = runner.call(op)
        ok = runner.check(op, failure, ppass)
        runner.record(op, blob)
        tracer.op = op.index
        with tracer:
            dt_traced, blob_traced, failure = runner.call(op)
        if failure is None and blob_traced != blob:
            failure = "traced output differs from the untraced output"
        if runner.check(op, failure, ppass) and ok:
            plain.append(dt)
            traced.append(dt_traced)
            kept.append(op)
    runner.replay()
    if not traced:
        raise SystemExit("pvbench: every op failed; there is nothing to time")

    n_ops = sum(1 for s in tracer.spans if s.name == "cli.main")  # traced calls
    scale = statistics.median(runner.scale(op) for op in kept)
    totals = tracer.totals()
    counters = tracer.counters
    metrics = {}
    for layer, field in SPAN_METRICS:
        calls, inclusive, self_s = totals.get(layer, (0, 0.0, 0.0))
        value = {"calls": calls, "s": inclusive * scale, "self_s": self_s * scale}[field]
        metrics[f"{layer}.{field}"] = value / n_ops
    for name in COUNTER_METRICS:
        metrics[name] = counters.get(name, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    measure_calls = totals.get("states.measure_in_bases", (0,))[0]
    metrics["states.born_table_reuse"] = ratio(measure_calls, counters.get("states.born_tables", 0))
    diagonalizations = (totals.get("hamiltonians.exact_diagonalize", (0,))[0]
                        + totals.get("hamiltonians.ground_state", (0,))[0])
    metrics["hamiltonians.diag_per_target"] = ratio(
        diagonalizations, counters.get("targets.hamiltonian", 0))
    metrics["circuits.prepare_per_target"] = ratio(
        totals.get("circuits.decompose", (0,))[0], counters.get("targets.circuit", 0))
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)

    op_time = sum(s.end - s.start for s in tracer.spans if s.name == "cli.main")
    shares = {name: round(v[2] / op_time, 4) for name, v in sorted(totals.items())}
    spans_file = WORK / "trace.json"
    spans_file.write_text(json.dumps(tracer.dump()))
    context = {
        "speed_scale_median": scale,
        "ops_traced": n_ops,
        "self_time_share_of_traced_ops": shares,
        "absent": tracer.absent,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pauliverify benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "pauliverify"
    if not (source / "__init__.py").is_file():
        print(f"pvbench: no pauliverify package at {source}", file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("PAULIVERIFY_THREADS", None)  # its default of 1 applies
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    # Paths in the CLI arguments are relative to the checkout root, so the
    # reports (which echo them) are the same bytes in every checkout.
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()

    import numpy
    import scipy
    import pauliverify
    import workloads

    if Path(pauliverify.__file__).resolve().parent != source.resolve():
        print(f"pvbench: imported pauliverify from {pauliverify.__file__}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    measure = run_traced if args.trace else run_untraced
    values, details = measure(runner, args.seconds)

    units = per_layer_units() if args.trace else dict(END_TO_END)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_ENV},
        "pauliverify_threads": "unset (default 1)",
        "params": workloads.PARAMS[args.workload],
        "outputs_sha256": runner.sha.hexdigest(),
        "hashed_ops": HASHED_OPS,
        **details,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
