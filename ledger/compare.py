"""``python3 -m ledger.compare A B`` — did B get worse than A?

``A`` and ``B`` are ledger records written with ``--out``, or directories
of them (one sample per record then, instead of one per repetition).  One row per
(end-to-end metric, workload): both medians and quartiles, the metric's
bound, and a verdict:

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``regressed``  — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread on either side is wider than
  the bound *and* the two sides' runs interleave, so the data cannot
  say (it is not reported as unchanged).

Exact metrics (bit-identical on the deterministic workloads) compare
with ``==`` first; metrics with bound 0 (``failed_ops_frac``,
``violations``, ``recovery_cycles_max``) may never rise.  Exit status 1
on any ``regressed``.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from statistics import median, quantiles

__all__ = ["compare", "load", "main"]


def load(path: str) -> dict:
    """One record, or every ``*.json`` record in a directory.

    A single record is sampled by its repetitions; several records are
    sampled by their per-record medians, one value per run — the spread
    that matters is run to run, not repetition to repetition.
    """
    paths = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    if not paths:
        raise SystemExit(f"no records under {path}")
    pooled: dict = {}
    for name in paths:
        with open(name, encoding="utf-8") as handle:
            record = json.load(handle)
        for workload, block in record.get("workloads", {}).items():
            target = pooled.setdefault(workload, {"metrics": {}, "digests": set()})
            if block.get("digest"):
                target["digests"].add(block["digest"])
            for metric, entry in block.get("end_to_end", {}).items():
                slot = target["metrics"].setdefault(metric, {**entry, "runs": []})
                if entry.get("value") is None:
                    continue
                if len(paths) == 1:
                    slot["runs"].extend(entry.get("runs") or [entry["value"]])
                else:
                    slot["runs"].append(entry["value"])
    return pooled


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = quantiles(values, n=4)
    return q1, q3


def _verdict(a: list[float], b: list[float], entry: dict) -> tuple[str, str]:
    lower = entry["better"] == "lower"
    bound = entry["bound"]
    med_a, med_b = median(a), median(b)
    if entry.get("exact") and set(a) == set(b):
        return "ok", "identical"
    if bound == 0:
        worse = med_b > med_a if lower else med_b < med_a
        return ("regressed", "may never get worse") if worse else ("ok", "")
    base = abs(med_a) or 1.0
    worse_by = (med_b - med_a) / base if lower else (med_a - med_b) / base
    spread = 0.0
    for values, med in ((a, med_a), (b, med_b)):
        q1, q3 = _quartiles(values)
        spread = max(spread, (q3 - q1) / (abs(med) or 1.0))
    if lower:
        b_all_better, b_all_worse = max(b) < min(a), min(b) > max(a)
    else:
        b_all_better, b_all_worse = min(b) > max(a), max(b) < min(a)
    if spread > bound and not (b_all_better or b_all_worse):
        return "unresolved", f"spread {spread:.1%} > bound, runs interleave"
    note = f"{worse_by:+.1%} worse" if worse_by > 0 else f"{-worse_by:+.1%} better"
    if entry.get("exact"):
        note += " (exact metric changed)"
    return ("regressed" if worse_by > bound else "ok"), note


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload in a:
        if workload not in b:
            continue
        for metric, entry in a[workload]["metrics"].items():
            runs_a = entry["runs"]
            runs_b = b[workload]["metrics"].get(metric, {}).get("runs", [])
            if not runs_a or not runs_b:
                continue
            verdict, note = _verdict(runs_a, runs_b, entry)
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": entry["unit"],
                    "bound": entry["bound"],
                    "a_median": median(runs_a),
                    "a_quartiles": _quartiles(runs_a),
                    "b_median": median(runs_b),
                    "b_quartiles": _quartiles(runs_b),
                    "verdict": verdict,
                    "note": note,
                }
            )
        digests_a, digests_b = a[workload]["digests"], b[workload]["digests"]
        if digests_a and digests_b:
            same = digests_a == digests_b and len(digests_a) == 1
            rows.append(
                {
                    "workload": workload,
                    "metric": "digest",
                    "verdict": "ok" if same else "changed",
                    "note": "history bit-identical" if same else "history differs",
                }
            )
    return rows


def _side(med: float, quartiles: tuple[float, float]) -> str:
    return f"{med:.5g} [{quartiles[0]:.5g}..{quartiles[1]:.5g}]"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':20} {'metric':20} {'A median [q1..q3]':>34} "
          f"{'B median [q1..q3]':>34} {'bound':>6}  verdict")
    for row in rows:
        if row["metric"] == "digest":
            print(f"{row['workload']:20} {'digest':20} {'':34} {'':34} {'':6}  "
                  f"{row['verdict']}  {row['note']}")
            continue
        print(f"{row['workload']:20} {row['metric']:20} "
              f"{_side(row['a_median'], row['a_quartiles']):>34} "
              f"{_side(row['b_median'], row['b_quartiles']):>34} "
              f"{row['bound']:>6.0%}  {row['verdict']}  {row['note']}")
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in ("ok", "regressed", "unresolved", "changed")}
    print("summary: " + ", ".join(f"{n} {v}" for v, n in counts.items() if n))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
