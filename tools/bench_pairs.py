"""Compare perfbench runs of a parent and a change, pair by pair.

    python3 tools/bench_pairs.py PARENT_RECORDS... -- CHANGE_RECORDS...

Each record is one that ``perfbench/run.py`` wrote under ``perfbench/out/``
in a checkout of that side.  Records are paired by (workload, seed, traced);
every record needs exactly one partner on the other side, and each side must
come from one source tree on one host (as ``bench_summary.py`` requires).
Each metric's direction is the ``better`` that ``BENCHMARK.json`` declares
for it.  Per workload and metric the report gives each side's median
[q1, q3], how many pairs the change won and lost (a tie counts for
neither) and two verdicts.  The claim rule: the change wins at least nine
tenths of at least ten pairs, and its median beats the parent's by more than
the parent's IQR.  The regression rule mirrors it: the change loses at least
nine tenths of at least ten pairs, and its median is worse than the parent's
by more than the parent's IQR.  Beside them each metric shows how far the
change's median moved, as a share of the parent's median, and the ``bound``
``BENCHMARK.json`` sets for it; the bound verdict holds when the change's
median is worse than the parent's by more than bound times the parent's
median.  A tight metric can fail the IQR rule on a move well inside its
bound.  Per op kind it then gives the median seconds
and how often that kind sat at the op_p50_s and op_tail_s ranks, parent ->
change (``bench_summary.op_kinds``), so a percentile's move can be traced to
the ops that made it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench_summary import ROOT, op_kinds, spread, summarise

MIN_PAIRS = 10
WIN_SHARE = 0.9


def directions(benchmark: dict) -> dict[str, str]:
    return {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def bounds(benchmark: dict) -> dict[str, float]:
    """Each end-to-end metric's bound: the largest worsening allowed, as a share of the parent's median."""
    return {m["name"]: m["bound"] for m in benchmark["end_to_end"]}


def pair(parent: list[dict], change: list[dict]) -> dict[str, list[tuple[dict, dict]]]:
    """(parent, change) record pairs per workload, in seed order."""
    sides = []
    for records in (parent, change):
        keyed = {}
        for rec in records:
            prov = rec["provenance"]
            key = (prov["workload"] + ("-traced" if prov["traced"] else ""), prov["seed"])
            if key in keyed:
                raise ValueError(f"two records of {key[0]} seed {key[1]} on one side")
            keyed[key] = rec
        sides.append(keyed)
    unpaired = sorted(set(sides[0]) ^ set(sides[1]))
    if unpaired:
        raise ValueError(f"no partner for {unpaired[0][0]} seed {unpaired[0][1]}")
    groups: dict[str, list[tuple[dict, dict]]] = {}
    for key in sorted(sides[0]):
        groups.setdefault(key[0], []).append((sides[0][key], sides[1][key]))
    return groups


def compare(pairs: list[tuple[dict, dict]], metric: str, better: str, bound: float | None = None) -> dict:
    """Each side's spread, the change's paired wins and losses, whether it gains or
    regresses, and how far its median moved against the metric's bound (if any)."""
    sign = 1.0 if better == "higher" else -1.0
    before = [p["metrics"][metric] for p, _ in pairs]
    after = [c["metrics"][metric] for _, c in pairs]
    wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
    losses = sum(sign * (a - b) < 0 for b, a in zip(before, after))
    parent, change = spread(before), spread(after)
    gap = sign * (change["median"] - parent["median"])
    enough = len(pairs) >= MIN_PAIRS
    claim = enough and wins >= WIN_SHARE * len(pairs) and gap > parent["iqr"]
    regression = enough and losses >= WIN_SHARE * len(pairs) and -gap > parent["iqr"]
    base = abs(parent["median"])
    return {
        "parent": parent, "change": change, "wins": wins, "losses": losses, "pairs": len(pairs), "gap": gap,
        "claim": claim, "regression": regression,
        "moved": (change["median"] - parent["median"]) / base if base else None,
        "past_bound": None if bound is None else -gap > bound * base,
    }


def report(groups: dict[str, list[tuple[dict, dict]]], better: dict[str, str],
           bound: dict[str, float]) -> list[str]:
    side = "{median:.6g} [{q1:.6g}, {q3:.6g}]".format
    lines = []
    for workload, pairs in groups.items():
        lines.append(f"{workload}: {len(pairs)} pairs, seeds {[p['provenance']['seed'] for p, _ in pairs]}")
        for metric in pairs[0][0]["metrics"]:
            row = compare(pairs, metric, better[metric], bound.get(metric))
            moved = "n/a" if row["moved"] is None else f"{row['moved']:+.2%}"
            verdict = (
                "no bound" if row["past_bound"] is None
                else f"bound {bound[metric]:.0%}, worse past it {'holds' if row['past_bound'] else 'does not hold'}"
            )
            lines.append(
                f"  {metric} ({better[metric]} is better): parent {side(**row['parent'])}"
                f" -> change {side(**row['change'])}, wins {row['wins']}/{row['pairs']},"
                f" losses {row['losses']}/{row['pairs']},"
                f" gap {row['gap']:+.6g} vs parent IQR {row['parent']['iqr']:.6g},"
                f" claim {'holds' if row['claim'] else 'does not hold'},"
                f" regression {'holds' if row['regression'] else 'does not hold'},"
                f" moved {moved} of the parent median, {verdict}"
            )
        lines += kind_lines(pairs)
    return lines


def kind_lines(pairs: list[tuple[dict, dict]]) -> list[str]:
    """Per op kind: its median seconds and its counts at the p50 and tail ranks, parent -> change."""
    before, after = (op_kinds([pr[side] for pr in pairs]) for side in (0, 1))
    lines = ["  op kind: median s, times at the p50 ranks, times at the tail rank (parent -> change)"]
    for kind in sorted(before.keys() | after.keys()):
        old, new = before.get(kind), after.get(kind)
        cells = [
            " -> ".join(fmt(row[key]) if row else "-" for row in (old, new))
            for key, fmt in (("median_s", "{:.6f}".format), ("at_p50", str), ("at_tail", str))
        ]
        lines.append(f"    {kind}: {cells[0]}, p50 {cells[1]}, tail {cells[2]}")
    return lines


def main(argv: list[str]) -> int:
    if argv.count("--") != 1 or argv.index("--") in (0, len(argv) - 1):
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    try:
        sides = [[json.loads(Path(p).read_text()) for p in paths] for paths in (argv[:split], argv[split + 1 :])]
        for label, records in zip(("parent", "change"), sides):
            summarise(label, records)  # refuses records of different sources or hosts
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        lines = report(pair(*sides), directions(benchmark), bounds(benchmark))
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
