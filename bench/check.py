"""The `evidentia check` workload: a pool of seeds with recorded verdicts.

``check_pool.json`` holds, for each pool seed, the case count of every
suite at ``--instances`` INSTANCES and the time one check of it took, in
reference seconds, when the pool was recorded (``record_check_pool.py``).  A run sorts the pool by
that cost, cuts it into as many strata as it has operations, and lets the
workload seed pick one seed from each stratum.  Every run thus holds the
same mix of light and heavy seeds, whichever seeds it draws; the cost of a
seed is dominated by how many large dimensions the oracle suite draws.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

POOL_FILE = Path(__file__).with_name("check_pool.json")
INSTANCES = 5
POOL_SIZE = 120

_SUMMARY = re.compile(r"^(?P<name>[^\s:][^:]*): (?P<cases>\d+) cases, (?P<status>ok|\d+ FAILED)")


def pool_seeds() -> list[int]:
    return [104729 + 7919 * k for k in range(POOL_SIZE)]


def load_pool() -> list[dict]:
    with open(POOL_FILE, encoding="utf-8") as handle:
        data = json.load(handle)
    if data["instances"] != INSTANCES:
        raise ValueError(f"{POOL_FILE.name} was recorded at --instances {data['instances']}")
    return data["seeds"]


def pick(pool: list[dict], rng: random.Random, count: int) -> list[dict]:
    """One entry from each of ``count`` strata of the pool ordered by cost."""
    ranked = sorted(pool, key=lambda entry: entry["cost_s"])
    count = max(1, min(count, len(ranked)))
    picked = []
    for k in range(count):
        stratum = ranked[k * len(ranked) // count : (k + 1) * len(ranked) // count]
        picked.append(rng.choice(stratum))
    rng.shuffle(picked)
    return picked


def summary(out: str) -> tuple[dict[str, int], list[str], str | None]:
    """(cases per suite, suites not ok, the final seed line) of check output."""
    cases, bad = {}, []
    for line in out.splitlines():
        m = _SUMMARY.match(line)
        if m:
            cases[m["name"]] = int(m["cases"])
            if m["status"] != "ok":
                bad.append(m["name"])
    lines = out.rstrip("\n").splitlines()
    return cases, bad, (lines[-1] if lines else None)


def mismatch(entry: dict, code, out: str, err: str) -> str | None:
    """None when a check run reached the recorded verdict: exit 0, every
    suite ok, and each suite's case count as recorded for the seed."""
    seed = entry["seed"]
    if code != 0:
        return f"check seed {seed}: exit {code!r}: {err.strip()[-300:]}"
    if err:
        return f"check seed {seed}: unexpected stderr {err.strip()[:200]!r}"
    cases, bad, last = summary(out)
    if bad:
        return f"check seed {seed}: suites failed: {', '.join(bad)}"
    if last != f"seed: {seed}":
        return f"check seed {seed}: last line {last!r}"
    if cases != entry["cases"]:
        return f"check seed {seed}: case counts {cases} differ from the recorded {entry['cases']}"
    return None
