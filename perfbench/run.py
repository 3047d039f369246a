"""wavemaplab benchmark: run one workload, time it from outside, check it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of wavemaplab commands.  One workload run
starts them one after another, each in a fresh process (``child.py``),
single client, closed loop; the benchmark repeats workload runs for about
``--seconds`` seconds and reports medians.  The program gets no random
input: the workloads are fixed configs, so ``--seed`` only labels the run.

Workloads (why each is here):
  sweep     nonuniq-demo, the headline experiment: four penalized runs, two
            cone balances on the stored slab, the analytic balance and the
            in-cone distance.  Grid h = 1/48 (72^3 cells) instead of the
            default 1/64, so that a run fits the benchmark's time budget;
            at h = 1/40 and 1/32 the solutions_distinct verdict fails.
  run-save  penalized-run at the default config: one n = 64 run with the
            energy ledger, a 324 MiB GridField.save and the ledger CSV.
            Same solver as sweep, but writes the slab and does no
            quadrature: interpolation changes should not move it.
  analytic  s-table, cone-balance and identity-checks at --refine 2:
            closed-form jets, quadrature, stress-energy pairings and
            manufactured fields, no solver and no slab.  The no-change
            control for solver and slab work.

A workload run fails when a process exits non-zero, a verdict line reads
[FAIL], a report is missing, or a report holds a non-finite number that
the reference report (``reference/<workload>/``, recorded by
``record_reference.py``) does not hold at the same place.

With ``--trace 0`` the last stdout line gives the end-to-end metrics, the
medians over the untraced workload runs:
  wall_s       spawn of the first process to exit of the last
  setup_s      spawn to entry of the command function, summed over processes
               (interpreter start, imports, config parse)
  peak_rss_mb  highest ru_maxrss over the processes (os.wait4), MiB
  cpu_s        user + system CPU seconds of the processes
Failures show as ``failed`` out of ``attempted``.  With ``--trace 1`` one
traced workload run comes first and the last line gives the per-layer
metrics of ``layers.py``, plus ``cli.result_max_rel_dev`` (largest deviation
of any report number from the reference) and ``trace.overhead_s`` (traced
wall time minus the untraced median).  Details and the environment go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
OUT = WORK / "out"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"

WORKLOADS = {
    "sweep": [["nonuniq-demo", "--config", str(HERE / "sweep.ini")]],
    "run-save": [["penalized-run"]],
    "analytic": [["s-table", "--refine", "2"],
                 ["cone-balance", "--refine", "2"],
                 ["identity-checks", "--refine", "2"]],
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "cpu_s": "s"}
PER_LAYER = {**layers.UNITS, "cli.result_max_rel_dev": "ratio",
             "trace.overhead_s": "s"}

# Children run with the BLAS default of one thread per core and with cached
# bytecode (written under src/, as an installed package has it), whatever
# the caller's environment says, so both sides of a comparison use the same.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k not in (*THREAD_VARS, "PYTHONDONTWRITEBYTECODE")}

# No single process may outlive this many seconds after the benchmark starts.
HARD_LIMIT_S = 170.0
# Report numbers smaller than this are compared absolutely: balances that
# should vanish are differences of O(1) energies, and their last bits move
# with the BLAS thread count.
DEV_FLOOR = 1e-3


@dataclass
class WorkloadRun:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    cpu_s: float
    failures: list = field(default_factory=list)
    max_rel_dev: float = 0.0
    spans: list = field(default_factory=list)  # one span list per process


def _leaves(obj, path=()):
    """(path, number) for every numeric leaf of a parsed JSON report."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            yield from _leaves(v, path + (k,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, float(obj)


def check_report(report: dict, reference: dict | None):
    """Non-finite numbers the reference does not share, and the largest
    deviation from the reference (1.0 where a number has no counterpart)."""
    ref = dict(_leaves(reference)) if reference is not None else {}
    bad, dev = [], 0.0
    for path, x in _leaves(report):
        r = ref.get(path)
        if not math.isfinite(x):
            if r is None or math.isfinite(r):
                bad.append("/".join(map(str, path)))
            continue
        if r is None or not math.isfinite(r):
            dev = max(dev, 1.0)
        else:
            dev = max(dev, abs(x - r) / max(abs(r), DEV_FLOOR))
    return bad, dev


def _report_name(command: str) -> str:
    return f"{command.replace('-', '_')}_report.json"


def run_workload(commands, trace: bool, deadline: float,
                 reference: Path | None) -> WorkloadRun:
    """One workload run: every command in sequence, then the checks.  The
    previous run's outputs are deleted first."""
    shutil.rmtree(WORK / "run", ignore_errors=True)
    shutil.rmtree(OUT, ignore_errors=True)
    (WORK / "run").mkdir(parents=True)
    res = WorkloadRun(0.0, 0.0, 0.0, 0.0)
    t_first = time.monotonic()
    for k, argv in enumerate(commands):
        record = WORK / "run" / f"record_{k}.json"
        stdout = WORK / "run" / f"stdout_{k}.txt"
        stderr = WORK / "run" / f"stderr_{k}.txt"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(record), str(int(trace)),
                 *argv, "--out", str(OUT)],
                stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
            timer = threading.Timer(max(0.0, deadline - t_spawn), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t_exit = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        res.wall_s = t_exit - t_first
        res.peak_rss_mb = max(res.peak_rss_mb, usage.ru_maxrss / 1024.0)
        res.cpu_s += usage.ru_utime + usage.ru_stime
        if code != 0:
            res.failures.append(f"{argv[0]} exited with {code}")
            tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
            res.failures.extend(f"  {line}" for line in tail)
        fails = [ln for ln in stdout.read_text(errors="replace").splitlines()
                 if ln.startswith("[FAIL]")]
        res.failures.extend(f"{argv[0]}: {ln}" for ln in fails)
        try:
            rec = json.loads(record.read_text())
        except (OSError, ValueError):
            rec = {}
        if rec.get("t_enter") is None:
            res.failures.append(f"{argv[0]}: command function never entered")
        else:
            res.setup_s += rec["t_enter"] - t_spawn
        res.spans.append(rec.get("spans", []))
        name = _report_name(argv[0])
        try:
            report = json.loads((OUT / name).read_text())
        except (OSError, ValueError):
            res.failures.append(f"{argv[0]}: report {name} missing")
            continue
        ref = None
        if reference is not None and (reference / name).is_file():
            ref = json.loads((reference / name).read_text())
        bad, dev = check_report(report, ref)
        res.failures.extend(f"{argv[0]}: non-finite {p}" for p in bad)
        res.max_rel_dev = max(res.max_rel_dev, dev)
    return res


def measure(commands, seconds: float, trace: bool, reference: Path | None):
    """Workload runs for about ``seconds``: with ``trace`` one traced run
    first, then untraced runs (at least one) while the next is expected to
    end less than half a run past the budget.  Returns (untraced, traced)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    traced = run_workload(commands, True, deadline, reference) if trace else None
    plain = []
    try:
        while True:
            plain.append(run_workload(commands, False, deadline, reference))
            elapsed = time.monotonic() - start
            mean = elapsed / (len(plain) + (traced is not None))
            if elapsed > seconds - mean / 2 or time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return plain, traced


def end_to_end(plain) -> dict:
    return {name: statistics.median(getattr(r, name) for r in plain)
            for name in END_TO_END}


def per_layer(plain, traced) -> dict:
    m = layers.layer_metrics(traced.spans)
    m["cli.result_max_rel_dev"] = max(r.max_rel_dev for r in [traced, *plain])
    m["trace.overhead_s"] = traced.wall_s - statistics.median(
        r.wall_s for r in plain)
    return m


def metrics(plain, traced):
    """The result's metrics and their units: per-layer for a traced run."""
    if traced is not None:
        return per_layer(plain, traced), PER_LAYER
    return end_to_end(plain), END_TO_END


def tail_percentile(samples):
    """(p, value) for the highest of p50/p90/p99/p99.9 with at least ten
    samples above it, or None."""
    xs = sorted(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        k = math.ceil(p / 100.0 * len(xs))
        if k >= 1 and len(xs) - k >= 10:
            return p, xs[k - 1]
    return None


def environment() -> dict:
    """What must match on both sides of a comparison."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    return {
        "nproc": os.cpu_count(),
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES")
        * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {v: CHILD_ENV.get(v, "unset") for v in THREAD_VARS},
    }


def result_line(plain, traced, values: dict, units: dict) -> str:
    runs = [*plain, *([traced] if traced else [])]
    failed = sum(1 for r in runs if r.failures)
    return json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}})


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still stops the workload process it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "wavemaplab" / "cli.py").is_file():
        _log(f"perfbench: no wavemaplab sources under {ROOT / 'src'}")
        return 2

    _log(f"workload {args.workload}, seed {args.seed}, environment: "
         f"{json.dumps(environment(), sort_keys=True)}")
    plain, traced = measure(WORKLOADS[args.workload], args.seconds,
                            bool(args.trace), REFERENCE / args.workload)
    for i, r in enumerate([*([traced] if traced else []), *plain]):
        _log(f"run {i}: wall {r.wall_s:.3f} s, setup {r.setup_s:.3f} s, "
             f"rss {r.peak_rss_mb:.0f} MiB, cpu {r.cpu_s:.2f} s"
             + "".join(f"\n  FAIL {f}" for f in r.failures))
    values, units = metrics(plain, traced)
    if not args.trace:
        for name, unit in units.items():
            samples = [getattr(r, name) for r in plain]
            tail = tail_percentile(samples)
            _log(f"{name}: median {values[name]:.4f} {unit} over "
                 f"{len(samples)} samples; "
                 + (f"p{tail[0]:g} {tail[1]:.4f}" if tail
                    else "no percentile with ten samples above it"))
    print(result_line(plain, traced, values, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
