"""Summarise a set of perfbench runs into one BENCH_<label>.json.

    python3 tools/bench_summary.py LABEL perfbench/out/exact-lab-seed*-trace0.json ...

Each argument after the label is a record that ``perfbench/run.py`` wrote
under the git-ignored ``perfbench/out/``.  Records are grouped by workload
(and by ``traced`` for traced runs).  For each group the summary gives every
metric's median, quartiles and IQR over the runs, the seeds and the failed
op count.  Per op kind it gives the median seconds over the records' ``ops``
lists and how often that kind sat at the ranks whose mean is op_p50_s and at
the op_tail_s rank (``tail.rank`` of an untraced record), so a claim on a
percentile can name the ops it moved; this table also goes to stdout.  The
provenance the runs share (commit, sha256 of the sources, nproc, CPU,
Python, numpy) is checked and written once: records of
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
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("git_commit", "source_sha256", "nproc", "cpu_model", "python", "numpy")
LABEL = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")  # names one file at the root, never a path


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of one metric's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def op_kinds(records: list[dict]) -> dict:
    """Per op kind: the median seconds of its ops, and how many times it sat at a
    rank op_p50_s averages (both middle ranks of an even op count, counted
    apart) and at the op_tail_s rank of a record."""
    seconds: dict[str, list[float]] = {}
    at_p50, at_tail = Counter(), Counter()
    for rec in records:
        ops = sorted(rec["ops"], key=lambda op: op[2])  # [index, kind, seconds, error]
        for _, kind, sec, _ in ops:
            seconds.setdefault(kind, []).append(sec)
        if "tail" in rec:  # an untraced run: its ops are the ones the metrics rank
            n = len(ops)
            for rank in {(n + 1) // 2, n // 2 + 1}:
                at_p50[ops[rank - 1][1]] += 1
            at_tail[ops[rec["tail"]["rank"] - 1][1]] += 1
    return {
        kind: {"median_s": statistics.median(secs), "ops": len(secs), "at_p50": at_p50[kind], "at_tail": at_tail[kind]}
        for kind, secs in sorted(seconds.items())
    }


def kind_lines(summary: dict) -> list[str]:
    lines = []
    for name, group in summary["workloads"].items():
        lines.append(f"{name}: op kind, median s, ops, times at the p50 ranks, times at the tail rank")
        for kind, row in group["op_kinds"].items():
            lines.append(f"  {kind:<18} {row['median_s']:.6f} {row['ops']:>5} {row['at_p50']:>4} {row['at_tail']:>4}")
    return lines


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
            "op_kinds": op_kinds(recs),
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
    print("\n".join(kind_lines(summary)))
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
