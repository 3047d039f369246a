"""Record the reference reports the benchmark compares against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload once (all by default) and copies its JSON reports into
``perfbench/reference/<workload>/``.  Refuses a workload whose run fails
for any reason other than a non-finite report number: a reference may hold
deliberate NaNs (s-table's relative difference where s(lambda) = 0), and it
is the only thing that can vouch for them.
"""

from __future__ import annotations

import shutil
import sys
import time

import run


def record(name: str, commands, dest) -> bool:
    res = run.run_workload(commands, False, time.monotonic() + 600.0, None)
    hard = [f for f in res.failures if ": non-finite " not in f]
    if hard:
        print(f"{name}: not recorded\n  " + "\n  ".join(hard), file=sys.stderr)
        return False
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for argv in commands:
        report = run._report_name(argv[0])
        shutil.copyfile(run.OUT / report, dest / report)
    print(f"{name}: recorded in {dest}", file=sys.stderr)
    return True


def main(names) -> int:
    try:
        ok = [record(n, run.WORKLOADS[n], run.REFERENCE / n)
              for n in names or run.WORKLOADS]
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
