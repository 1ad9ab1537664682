"""refcalc benchmark: four workloads through the public entry points.

One run, from the repository root:

    python3 perfbench/run.py --workload calculus_grid --seed 1 --seconds 22 --trace 0

--trace 0 prints the end-to-end metrics (setup_s, pass_s, peak_rss_mb);
--trace 1 prints the per-layer metrics of a traced run. Either way the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it give every metric with its unit,
sample count and quartiles, and a `meta:` line with the seed plan, the pool
facts, the raw timings and the oracle's own 3-se verdicts.

    python3 perfbench/run.py --self-check

runs one pass of every workload, plain and traced, and asserts that every
metric prints and that the bypass predictions hold (see README.md).

Each workload is a fixed list of jobs run as a closed loop with one client:
the next job starts when the previous one returns. A pass is one trip
through the list; passes repeat until --seconds have been measured.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from spans import Tracer, cpu_seconds  # noqa: E402

# A checked value passes when it lies within TOL_FACTOR times the job's own
# requested quadrature tolerance of the independent reference, plus the
# rounding of the CLI's 12-significant-digit output. The tolerance is taken
# at scale max(|value|, 1): every checked value is built from integrals of
# probabilities, so a small difference such as a congruence delta inherits
# the absolute error of integrals near 1. A quantity combines a handful of
# integrals, each accepted by a local rule that does not bound its global
# error, hence the factor. On the seed the worst value sits at 3.1x (a figg
# cell where the saturated win map puts an unsplit kink in the integrand);
# an exact closed form always passes, a wrong formula almost never does.
TOL_FACTOR = 16.0
FORMAT_REL = 1e-11
# Simulated frequencies must lie within this many standard errors of the
# analytic value; the CLI's own 3-se verdict is only reported.
ORACLE_SE_LIMIT = 4.0
SETUP_REPS = 3
# On a shared 2-vCPU virtual machine the CPU speed drifts by 20-40% in phases
# lasting seconds to minutes, even with nothing else running in the guest, so
# the raw wall times of a run wander far more than the program does. Both time metrics are rescaled
# to a reference speed: a fixed calibration loop that mimics refcalc's hot
# path (0-d numpy calls, erfc, Python floats) but runs none of its code is
# timed before every job, after every pass and before every set-up probe,
# and each time is multiplied by CALIBRATION_REF_S over the run's mean
# calibration time. The raw medians print on the meta line.
CALIBRATION_REF_S = 0.065
_CALIBRATION_STEPS = 8000

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import refcalc.cli; "
    "from refcalc.scenario import load_scenario; "
    "[load_scenario(p) for p in sys.argv[2:]]"
)
_VALIDATE_REF = {
    "win_prob_no_referendum": "win_prob_no_referendum",
    "congruence_y_no_referendum": "congruence_second_no_ref",
    "win_prob_non_binding": "win_prob_non_binding",
    "congruence_y_non_binding": "congruence_second_with_ref",
    "ahead_third_no_referendum": "ahead_third_no_ref",
    "ahead_third_non_binding": "ahead_third_non_binding",
}


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now."""
    start = time.perf_counter()
    total = 0.0
    for i in range(_CALIBRATION_STEPS):
        x = np.asarray(i * 1e-4, dtype=float)
        if np.all(np.isfinite(x)):
            total += float(np.exp(-0.5 * x * x)) + math.erfc(i * 1e-4)
    return time.perf_counter() - start


class Tally:
    """Operations attempted and failed: every job and every checked value."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.cli_3se_fails = 0
        self.messages = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def _within(got: str, ref, tol) -> bool:
    if ref is None:
        return got == ""
    if isinstance(ref, bool):
        return got == ("true" if ref else "false")
    try:
        value = float(got)
    except ValueError:
        return False
    scale = max(abs(ref), 1.0)
    bound = TOL_FACTOR * (tol["abs_tol"] + tol["rel_tol"] * scale) + FORMAT_REL * scale
    return abs(value - ref) <= bound


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check_grid(tally, label, text, ref_rows, tol, flags=False):
    """CSV grid against reference rows, cell by cell (header skipped)."""
    rows = _csv_rows(text)[1:]
    if not tally.check(len(rows) == len(ref_rows), f"{label}: {len(rows)} rows"):
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for j, want in enumerate(ref):
            got = row[j] if j < len(row) else "<missing>"
            tally.check(_within(got, want, tol), f"{label} row {i} col {j}: {got} vs {want}")
        if flags:
            d2, dt = float(row[2]), (float(row[3]) if row[3] else None)
            want = "knife_edge" if dt is None else {
                (True, True): "both_negative", (True, False): "second_negative",
                (False, True): "traditional_negative", (False, False): "none_negative",
            }[(d2 < 0, dt < 0)]
            tally.check(row[4] == want, f"{label} row {i} flag {row[4]} vs {want}")


def _check_eval(tally, label, text, ref, tol):
    rows = dict(_csv_rows(text)[1:])
    tally.check(set(rows) == set(ref), f"{label}: quantities {sorted(set(rows) ^ set(ref))}")
    for name, want in ref.items():
        if name in rows:
            tally.check(_within(rows[name], want, tol), f"{label} {name}: {rows[name]} vs {want}")


def _check_simulated(tally, label, analytic, simulated, se):
    ok = abs(simulated - analytic) <= ORACLE_SE_LIMIT * se
    tally.check(ok, f"{label}: simulated {simulated} vs analytic {analytic}, se {se}")


def _check_validate(tally, label, text, ref):
    for name, analytic, simulated, se, _z, verdict in _csv_rows(text)[1:]:
        tally.check(
            _within(analytic, ref[_VALIDATE_REF[name]], wl.CALCULUS_TOL),
            f"{label} {name}: analytic {analytic} vs {ref[_VALIDATE_REF[name]]}",
        )
        _check_simulated(tally, f"{label} {name}", float(analytic), float(simulated), float(se))
        tally.cli_3se_fails += verdict != "PASS"


class Job:
    """One call into refcalc; run() returns its output, check() judges it."""

    def __init__(self, label, run, check, deterministic=False):
        self.label, self.run, self.check = label, run, check
        self.deterministic = deterministic
        self.first_output = None


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path, reference: dict):
        import refcalc.cli
        import refcalc.oracle

        self.name, self.seed, self.workdir = name, seed, workdir
        self.plan = wl.SeedPlan(seed)
        self.ref = reference
        self.scenario_files = []
        self.meta = {"grid_offset": self.plan.grid_offset}
        self._cli, self._oracle = refcalc.cli, refcalc.oracle
        self.jobs = getattr(self, f"_jobs_{name}")()

    # ------------------------------------------------------------ helpers
    def _scenario(self, stem: str, spec: dict) -> str:
        path = self.workdir / f"{stem}.json"
        if str(path) not in self.scenario_files:
            path.write_text(json.dumps(spec), encoding="utf-8")
            self.scenario_files.append(str(path))
        return str(path)

    def _cli_job(self, label, argv, check, deterministic=False):
        out = self.workdir / f"{label}.csv"

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self._cli.main([*argv, "--out", str(out)])
            if rc != 0:
                raise RuntimeError(f"{label}: exit code {rc}")
            return buf.getvalue() + out.read_text(encoding="utf-8")

        def judge(tally, output):
            check(tally, out.read_text(encoding="utf-8"))

        return Job(label, run, judge, deterministic)

    def _sweep_job(self, label, steps, extra=()):
        lo, hi = wl.sweep_range(self.plan.grid_offset)
        path = self._scenario("diverged", wl.DIVERGED)
        argv = [
            "sweep", path, "--var", "r", "--from", repr(lo), "--to", repr(hi),
            "--steps", str(steps), "--quantities", ",".join(wl.SWEEP_QUANTITIES), *extra,
        ]
        ref = self.ref["sweep"][str(steps)][self.plan.grid_offset]
        return self._cli_job(
            label, argv, lambda t, text: _check_grid(t, label, text, ref, wl.CALCULUS_TOL)
        )

    def _figure_tol_args(self):
        tol = wl.CALCULUS_TOL
        return ["--quad-abs-tol", repr(tol["abs_tol"]), "--quad-rel-tol", repr(tol["rel_tol"])]

    # ----------------------------------------------------------- workloads
    def _jobs_calculus_grid(self):
        ref = self.ref
        tol = wl.CALCULUS_TOL
        diverged = self._scenario("diverged", wl.DIVERGED)
        spoiler = self._scenario("spoiler", wl.SPOILER)
        return [
            self._cli_job("fig3", ["figure", "fig3", *self._figure_tol_args()],
                          lambda t, text: _check_grid(t, "fig3", text, ref["fig3"], tol)),
            self._cli_job("figg", ["figure", "figg", *self._figure_tol_args()],
                          lambda t, text: _check_grid(t, "figg", text, ref["figg"], tol, True)),
            self._sweep_job("sweep", wl.SERIAL_SWEEP_STEPS),
            self._cli_job("eval_diverged", ["eval", diverged], lambda t, text: _check_eval(
                t, "eval_diverged", text, ref["eval"]["diverged"], tol)),
            self._cli_job("eval_spoiler", ["eval", spoiler], lambda t, text: _check_eval(
                t, "eval_spoiler", text, ref["eval"]["spoiler"], tol)),
        ]

    def _jobs_turnout_eval(self):
        path = self._scenario("turnout", wl.TURNOUT)
        ref = self.ref["eval"]["turnout"]
        return [self._cli_job("eval_turnout", ["eval", path], lambda t, text: _check_eval(
            t, "eval_turnout", text, ref, wl.TURNOUT_TOL))]

    def _jobs_oracle_validate(self):
        seeds = iter(self.plan.oracle_seeds)
        self.meta["oracle_seeds"] = self.plan.oracle_seeds
        jobs = []
        for engine, size in (("agents", wl.AGENTS_SIZE), ("counts", wl.COUNTS_SIZE)):
            for stem, spec in (("diverged", wl.DIVERGED), ("spoiler", wl.SPOILER)):
                sim = {**size, "seed": next(seeds), "agent_level": engine == "agents"}
                label = f"validate_{stem}_{engine}"
                path = self._scenario(label, {**spec, "sim": sim})
                ref = self.ref["eval"][stem]
                jobs.append(self._cli_job(
                    label, ["validate", path],
                    lambda t, text, label=label, ref=ref: _check_validate(t, label, text, ref),
                    deterministic=True,
                ))
        turnout_path = self._scenario("turnout", wl.TURNOUT)
        turnout_ref = self.ref["eval"]["turnout"]
        for regime, key in (("no_referendum", "win_prob_turnout_no_ref"),
                            ("binding", "win_prob_turnout_binding")):
            jobs.append(self._simulate_job(turnout_path, regime, next(seeds), turnout_ref[key]))
        return jobs

    def _simulate_job(self, path, regime_name, seed, analytic):
        import refcalc.model
        import refcalc.scenario

        label = f"simulate_turnout_{regime_name}"
        target = refcalc.scenario.load_scenario(path).turnout
        regime = refcalc.model.ReferendumRegime(regime_name)
        config = self._oracle.SimConfig(
            seed=seed, mode="turnout", agent_level=True, **wl.AGENTS_SIZE
        )
        last = {}

        def run():
            last["result"] = self._oracle.simulate(target, regime, config)
            return repr(last["result"])

        def judge(tally, output):
            res = last["result"]
            _check_simulated(tally, label, analytic, res.win_freq_R, res.se_win_R)

        return Job(label, run, judge, deterministic=True)

    def _jobs_sweep_pool(self):
        import refcalc.scenario

        job = self._sweep_job("sweep_pool", wl.POOL_SWEEP_STEPS,
                              ("--threads", str(wl.POOL_WORKERS)))
        scenario = refcalc.scenario.load_scenario(self.scenario_files[0])
        quantities = tuple(wl.SWEEP_QUANTITIES)
        sizes = [len(pickle.dumps((scenario, "r", r, quantities)))
                 for r in wl.sweep_values(self.plan.grid_offset, wl.POOL_SWEEP_STEPS)]
        self.meta["pool"] = {
            "start_method": multiprocessing.get_context().get_start_method(),
            "workers": wl.POOL_WORKERS,
            "jobs": len(sizes),
            "pickled_bytes_per_job": statistics.median(sizes),
        }
        return [job]

    # ---------------------------------------------------------------- pass
    def run_pass(self, tally: Tally, tracer: Tracer | None = None, calibration=None) -> float:
        """One trip through the job list; returns the seconds spent in refcalc.

        With a calibration list, the calibration loop is timed into it before
        every job and once more at the end of the pass.
        """
        busy = 0.0
        for job_id, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = job_id
            if calibration is not None:
                calibration.append(calibrate())
            tally.attempted += 1
            start = time.perf_counter()
            try:
                output = job.run()
            except Exception:  # a failed job is counted, the pass goes on
                busy += time.perf_counter() - start
                tally.failed += 1
                tally.messages.append(f"{job.label}: {traceback.format_exc(limit=3)}")
                continue
            busy += time.perf_counter() - start
            job.check(tally, output)
            if job.deterministic:
                if job.first_output is None:
                    job.first_output = output
                else:
                    tally.check(output == job.first_output, f"{job.label}: output differs from pass 1")
        if calibration is not None:
            calibration.append(calibrate())
        return busy


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure_setup(files, calibration) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and load the scenarios."""
    times = []
    for _ in range(SETUP_REPS):
        calibration.append(calibrate())
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), *files],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def _measure_passes(workload, tally, seconds, tracer=None, per_pass=None, calibration=None):
    times = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        cpu0 = cpu_seconds()
        busy = workload.run_pass(tally, tracer, calibration)
        times.append(busy)
        if per_pass is not None:
            per_pass.append(tracer.metrics(busy, cpu_seconds() - cpu0))
        if time.perf_counter() - start >= seconds:
            return times


def run_plain(workload, tally, seconds):
    """End-to-end metrics: name -> (value, unit, samples)."""
    calibration = []
    times = _measure_passes(workload, tally, seconds, calibration=calibration)
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup = measure_setup(workload.scenario_files, calibration)
    scale = CALIBRATION_REF_S / statistics.mean(calibration)
    workload.meta["raw"] = {
        "pass_wall_s": statistics.median(times),
        "setup_wall_s": statistics.median(setup),
        "calibration_s": statistics.mean(calibration),
        "calibrations": len(calibration),
        "speed_scale": scale,
    }
    return {
        "setup_s": (statistics.median(setup) * scale, "s", [t * scale for t in setup]),
        "pass_s": (statistics.median(times) * scale, "s", [t * scale for t in times]),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", [rss_kb / 1024.0]),
    }


def run_traced(workload, tally, seconds):
    """Per-layer metrics of traced passes, after one untraced pass for the overhead."""
    start = time.perf_counter()
    untraced = workload.run_pass(tally)
    tracer = Tracer()
    per_pass = []
    tracer.install()
    try:
        remaining = seconds - (time.perf_counter() - start)
        times = _measure_passes(workload, tally, remaining, tracer, per_pass)
    finally:
        tracer.uninstall()
    _write_spans(workload, tracer)
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        samples = [p[name][0] for p in per_pass]
        metrics[name] = (statistics.median(samples), unit, samples)
    traced = statistics.median(times)
    metrics["trace.pass_s"] = (traced, "s", times)
    metrics["trace.overhead_s"] = (traced - untraced, "s", [t - untraced for t in times])
    return metrics


def _write_spans(workload, tracer):
    """Spans and aggregates of the last traced pass, for inspection."""
    out_dir = BENCH / ".traces"
    out_dir.mkdir(exist_ok=True)
    jobs = [job.label for job in workload.jobs]
    data = {
        "workload": workload.name,
        "seed": workload.seed,
        "jobs": jobs,
        "spans": [list(s) for s in tracer.spans],
        "aggregates": [[n, p, *v] for (n, p), v in tracer.agg.items()],
    }
    path = out_dir / f"{workload.name}-seed{workload.seed}.json"
    path.write_text(json.dumps(data), encoding="utf-8")


def _report(metrics, tally, meta):
    for name, (value, unit, samples) in metrics.items():
        q1, q3 = _quartiles(samples)
        print(f"{name:<48} {value:>14.6g} {unit:<6} n={len(samples)} q1={q1:.6g} q3={q3:.6g}")
    meta = {**meta, "cli_3se_fail_verdicts": tally.cli_3se_fails}
    print("meta: " + json.dumps(meta, sort_keys=True))
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))


def run(args) -> int:
    if not (SRC / "refcalc" / "__init__.py").is_file():
        print(f"error: no refcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import refcalc.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import refcalc: {exc}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = Workload(args.workload, args.seed, workdir, reference)
        tally = Tally()
        if args.trace:
            metrics = run_traced(workload, tally, args.seconds)
        else:
            metrics = run_plain(workload, tally, args.seconds)
        meta = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": sys.version.split()[0], "cpus": os.cpu_count(), **workload.meta,
        }
        _report(metrics, tally, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# ------------------------------------------------------------------ self-check

def _expected_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _one_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(wl.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return lines, json.loads(lines[-1])


def self_check() -> int:
    e2e, per_layer = _expected_metrics()
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    for workload in wl.WORKLOADS:
        for trace, expected in ((0, e2e), (1, per_layer)):
            lines, result = _one_run(workload, trace)
            tag = f"{workload} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0, f"{tag}: {result['failed']} failed")
            metrics = result["metrics"]
            expect(set(metrics) == set(expected), f"{tag}: metric names {sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                row = [ln for ln in lines if ln.split(" ", 1)[0] == name]
                expect(bool(row) and f" {unit} " in row[0] and " n=" in row[0],
                       f"{tag}: {name} table row missing unit or sample count")
                expect(metrics.get(name, {}).get("unit") == unit, f"{tag}: {name} unit")
            if trace == 0:
                for name in e2e:
                    expect(metrics[name]["value"] > 0, f"{tag}: {name} is not positive")
                continue
            value = {name: m["value"] for name, m in metrics.items()}
            if workload == "calculus_grid":
                for name, v in value.items():
                    if name.startswith(("turnout.", "oracle.")):
                        expect(v == 0, f"{tag}: {name} = {v}, predicted 0")
            if workload == "turnout_eval":
                expect(value["turnout.intensity.calls"] == 6, f"{tag}: intensity calls")
                expect(value["turnout.intensity.distinct"] == 2, f"{tag}: intensity distinct")
                expect(value["turnout.intensity.pass_share"] >= 0.95, f"{tag}: intensity share")
            if workload == "oracle_validate":
                expect(value["turnout.intensity.calls"] == 0, f"{tag}: intensity ran")
            pool = value["cli.pool.s"]
            expect((pool > 0) == (workload == "sweep_pool"), f"{tag}: cli.pool.s = {pool}")
            print(f"self-check {tag}: overhead {value['trace.overhead_s']:.3f} s")
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
