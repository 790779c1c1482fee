#!/usr/bin/env python3
"""Compare two benchmark result files: parent (A) against change (B).

    python3 benchmark/compare.py A.json B.json [--claim WORKLOAD:METRIC]

A and B are results files written by run.py (standalone or --pairs mode);
in --pairs mode rep i of A and rep i of B form pair i, and a pair where
either rep failed is left out. For every
workload x end-to-end metric of BENCHMARK.json it prints both sides'
median and quartiles and a verdict:

  GAIN / NOT MET   the claimed metric: the change must win at least 9/10
                   of the pairs (ties count for neither) and the medians
                   must differ by more than the parent's quartile spread;
  ok / REGRESSION  every other metric: the change's median may be worse
                   than the parent's by at most the metric's bound;
  unresolved       the parent's own spread exceeds the bound, so "no
                   worse" cannot be shown, unless every change sample beats
                   every parent sample ("better").

Digest changes between the two sides (the outputs differ, not just the
timings) and more failed reps on the change side are flagged too. Exit
status 1 when a regression, an unmet claim or a new failure is found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import SPEC_PATH, quartiles


def is_better(x: float, y: float, better: str) -> bool:
    """True when x is strictly better than y."""
    return x < y if better == "lower" else x > y


def pair_wins(a: list[float | None], b: list[float | None],
              better: str) -> tuple[int, int]:
    """(wins of B over A, pairs counted), pairing rep i of A with rep i of
    B. A pair where either rep failed (None) is dropped; ties count for
    neither side."""
    pairs = [(x, y) for x, y in zip(a, b) if x is not None and y is not None]
    wins = sum(1 for x, y in pairs if is_better(y, x, better))
    return wins, len(pairs)


def classify(a: list[float], b: list[float], better: str, bound: float,
             claimed: bool, pairs: tuple[int, int] | None = None) -> str:
    """Verdict from both sides' samples; a claim is judged on pairs, the
    (wins, counted) of pair_wins, which defaults to pairing a with b."""
    q1a, med_a, q3a = quartiles(a)
    _, med_b, _ = quartiles(b)
    if claimed:
        wins, counted = pairs or pair_wins(a, b, better)
        clear = abs(med_b - med_a) > q3a - q1a
        won = counted > 0 and wins >= 0.9 * counted
        return "GAIN" if won and clear and is_better(med_b, med_a, better) \
            else "NOT MET"
    if med_a != 0 and (q3a - q1a) / abs(med_a) > bound:
        if all(is_better(y, x, better) for x in a for y in b):
            return "better"
        return "unresolved"
    change = (med_b - med_a) / abs(med_a) if med_a != 0 else 0.0
    worse_by = change if better == "lower" else -change
    return "REGRESSION" if worse_by > bound else "ok"


def compare(doc_a: dict, doc_b: dict, spec: dict,
            claim: tuple[str, str] | None) -> tuple[list[dict], list[str]]:
    """Rows (one per workload x metric) and flags."""
    rows = []
    flags = []
    for w in spec["workloads"]:
        name = w["name"]
        ea = doc_a["workloads"].get(name)
        eb = doc_b["workloads"].get(name)
        if ea is None or eb is None:
            continue
        for m in spec["end_to_end"]:
            ma = ea["metrics"].get(m["name"], {})
            mb = eb["metrics"].get(m["name"], {})
            sa, sb = ma.get("samples"), mb.get("samples")
            if not sa or not sb:
                flags.append(f"{name} {m['name']}: missing samples")
                continue
            q1a, med_a, q3a = quartiles(sa)
            q1b, med_b, q3b = quartiles(sb)
            claimed = claim == (name, m["name"])
            pairs = pair_wins(ma.get("per_rep", sa), mb.get("per_rep", sb),
                              m["better"]) if claimed else None
            rows.append({
                "workload": name, "metric": m["name"], "unit": m["unit"],
                "a": (q1a, med_a, q3a), "b": (q1b, med_b, q3b),
                "delta": (med_b - med_a) / abs(med_a) if med_a else 0.0,
                "bound": m["bound"], "claimed": claimed,
                "verdict": classify(sa, sb, m["better"], m["bound"],
                                    claimed, pairs)})
        da = {d for d in ea.get("digests", []) if d}
        db = {d for d in eb.get("digests", []) if d}
        if da != db:
            flags.append(f"{name}: output digest changed "
                         f"{sorted(da)} -> {sorted(db)}")
        if eb.get("failed", 0) > ea.get("failed", 0):
            flags.append(f"{name}: {eb['failed']} failed reps on the change "
                         f"side vs {ea.get('failed', 0)} on the parent")
    return rows, flags


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", help="results file of the parent (A)")
    ap.add_argument("change", help="results file of the change (B)")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    rows, flags = compare(json.loads(Path(args.parent).read_text()),
                          json.loads(Path(args.change).read_text()),
                          spec, claim)
    print(f"{'workload':18s} {'metric':12s} {'A q1/med/q3':>32s} "
          f"{'B q1/med/q3':>32s} {'delta':>8s} {'bound':>6s}  verdict")
    for r in rows:
        a = "/".join(f"{x:.4g}" for x in r["a"])
        b = "/".join(f"{x:.4g}" for x in r["b"])
        print(f"{r['workload']:18s} {r['metric']:12s} {a:>32s} {b:>32s} "
              f"{100 * r['delta']:+7.2f}% {100 * r['bound']:5.1f}%  "
              f"{r['verdict']}{'  (claimed)' if r['claimed'] else ''}")
    for f in flags:
        print(f"FLAG {f}")
    bad = any(r["verdict"] in ("REGRESSION", "NOT MET") for r in rows) or \
        any("failed reps" in f for f in flags)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
