"""Smoke check of the benchmark harness; takes about half a minute.

    python3 perfbench/smoke.py

Runs every workload once at a tiny config, untraced and traced, through the
same code as ``run.py``, and checks that the result line names every metric
of ``BENCHMARK.json`` with its unit and a finite value, and that the tiny
runs pass.  Then runs s-table with a two-point quadrature, whose charge
verdicts fail, and checks that every such run is counted as failed.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import record_reference
import run

SMOKE = run.ROOT / ".perfbench_smoke"
# lam = 1 keeps the tiny sweep's verdicts meaningful: at this grid the lam = 2
# solutions are too smeared to be told apart from the analytic map.
TINY_INI = """\
[map]
lam = 1.0
[solver]
box_half_width = 0.375
h = 0.0208333333333333333
t_end = 0.1
[quadrature]
n_time = 8
n_radial = 12
n_polar = 8
[cones]
crossing = 0,0,0 ; 0.25 ; 0,0.1
"""
COARSE_INI = "[quadrature]\nn_radial = 2\nn_polar = 2\n"


def result(commands, trace: bool, reference) -> dict:
    plain, traced = run.measure(commands, 0.0, trace, reference)
    return json.loads(run.result_line(plain, traced,
                                      *run.metrics(plain, traced)))


def metric_problems(res: dict, want: dict) -> list[str]:
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    problems = [f"metric {k} missing or unit {got.get(k)!r} != {u!r}"
                for k, u in want.items() if got.get(k) != u]
    problems += [f"metric {k} not in BENCHMARK.json" for k in got if k not in want]
    problems += [f"metric {k} = {v['value']!r}" for k, v in res["metrics"].items()
                 if not isinstance(v["value"], (int, float))
                 or not math.isfinite(v["value"])]
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    shutil.rmtree(SMOKE, ignore_errors=True)
    SMOKE.mkdir()
    try:
        (SMOKE / "tiny.ini").write_text(TINY_INI)
        (SMOKE / "coarse.ini").write_text(COARSE_INI)
        tiny = ["--config", str(SMOKE / "tiny.ini")]
        workloads = {
            "sweep": [["nonuniq-demo", *tiny]],
            "run-save": [["penalized-run", *tiny]],
            "analytic": [["s-table"], ["cone-balance"], ["identity-checks"]],
        }
        for name, commands in workloads.items():
            ref = SMOKE / "reference" / name
            if not record_reference.record(name, commands, ref):
                problems.append(f"{name}: reference not recorded")
                continue
            for trace in (False, True):
                res = result(commands, trace, ref)
                problems += [f"{name} trace={int(trace)}: {p}"
                             for p in metric_problems(res, wanted[trace])]
                if res["failed"] or not res["correct"]:
                    problems.append(f"{name} trace={int(trace)}: tiny run failed")

        # against the tiny s-table reference, so that its deliberate NaN
        # passes and only the failed verdicts count
        forced = result([["s-table", "--config", str(SMOKE / "coarse.ini")]],
                        False, SMOKE / "reference" / "analytic")
        fail_ratio = forced["failed"] / forced["attempted"]
        if fail_ratio != 1.0 or forced["correct"]:
            problems.append(f"forced verdict failure counted as fail_ratio "
                            f"{fail_ratio}, correct={forced['correct']}")
    finally:
        shutil.rmtree(SMOKE, ignore_errors=True)
        shutil.rmtree(run.WORK, ignore_errors=True)

    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
