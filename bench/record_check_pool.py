"""Record ``check_pool.json``: the case counts of every suite for each pool
seed, and the time one check of the seed takes in reference seconds (see
``run.py``), used only to stratify the pool by cost.

Run from the repository root, on an idle machine:

    python3 bench/record_check_pool.py

Recording again is a change of the benchmark, never part of a change that
claims a speed-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
from evidentia import cli  # noqa: E402


def main() -> int:
    entries = []
    for seed in check.pool_seeds():
        gauge = run.SpeedGauge()
        for _ in range(3):
            gauge.sample(0)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", "--seed", str(seed), "--instances", str(check.INSTANCES)])
        elapsed = time.perf_counter() - start
        for _ in range(3):
            gauge.sample(1)
        cost = elapsed * gauge.scale(0)
        cases, bad, _ = check.summary(out.getvalue())
        if code != 0 or bad or err.getvalue():
            print(f"seed {seed}: exit {code}, failed suites {bad}: {err.getvalue()}", file=sys.stderr)
            return 1
        entries.append({"seed": seed, "cost_s": round(cost, 4), "cases": cases})
        print(f"seed {seed}: {cost:.3f} s", file=sys.stderr)
    with open(check.POOL_FILE, "w", encoding="utf-8") as handle:
        json.dump({"instances": check.INSTANCES, "seeds": entries}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
