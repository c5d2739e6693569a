"""Summarise a set of perfbench runs into one BENCH_<label>.json.

    python3 tools/bench_summary.py LABEL perfbench/out/exact-lab-seed*-trace0.json ...

Each argument after the label is a record that ``perfbench/run.py`` wrote
under the git-ignored ``perfbench/out/``.  Records are grouped by workload
(and by ``traced`` for traced runs).  For each group the summary gives every
metric's median, quartiles and IQR over the runs, the seeds and the failed
op count.  The provenance the runs share (commit, sha256 of the sources,
nproc, CPU, Python, numpy) is checked and written once: records of
different source trees or hosts are refused.  The summary goes to
``BENCH_<label>.json`` at the root of the checkout; a label that is not a
plain file-name part (letters, digits, ``.``, ``_``, ``-``, not starting
with ``.`` or ``-``) exits 2 before any record is read.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("git_commit", "source_sha256", "nproc", "cpu_model", "python", "numpy")
LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")  # names one file at the root, never a path


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of one metric's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(label: str, records: list[dict]) -> dict:
    if not records:
        raise ValueError("no records to summarise")
    shared = {key: records[0]["provenance"][key] for key in SHARED}
    for rec in records:
        for key in SHARED:
            if rec["provenance"][key] != shared[key]:
                raise ValueError(f"records differ in {key}: {shared[key]!r} vs {rec['provenance'][key]!r}")
    groups: dict[str, list[dict]] = {}
    for rec in records:
        prov = rec["provenance"]
        groups.setdefault(prov["workload"] + ("-traced" if prov["traced"] else ""), []).append(rec)
    workloads = {}
    for name, recs in sorted(groups.items()):
        recs.sort(key=lambda r: r["provenance"]["seed"])
        workloads[name] = {
            "runs": len(recs),
            "seeds": [r["provenance"]["seed"] for r in recs],
            "failed_ops": sum(r["failed"] for r in recs),
            "attempted_ops": sum(r["attempted"] for r in recs),
            "metrics": {m: spread([r["metrics"][m] for r in recs]) for m in recs[0]["metrics"]},
        }
    return {"label": label, "provenance": shared, "workloads": workloads}


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    label, paths = argv[0], argv[1:]
    if not LABEL.fullmatch(label):
        print(f"bench_summary: label {label!r} must match {LABEL.pattern}", file=sys.stderr)
        return 2
    try:
        summary = summarise(label, [json.loads(Path(p).read_text()) for p in paths])
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
