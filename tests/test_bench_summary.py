import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # bench_pairs imports bench_summary by name, as it does when run from tools/
    spec.loader.exec_module(module)
    return module


bench_summary = _load("bench_summary")
bench_pairs = _load("bench_pairs")


def record(seed, ops_per_s, *, workload="exact-lab", source="abc", failed=0, ops=((0, "step", 1.0, None),),
           **metrics):
    prov = {
        "workload": workload, "seed": seed, "traced": False, "git_commit": None, "source_sha256": source,
        "nproc": 2, "cpu_model": "cpu", "python": "3.11", "numpy": "2.4",
    }
    return {"provenance": prov, "metrics": {"ops_per_s": ops_per_s, **metrics}, "failed": failed, "attempted": 48,
            "ops": [list(op) for op in ops]}


def test_summary_gives_median_and_iqr_per_workload():
    recs = [record(s, v) for s, v in zip((3, 1, 2, 4, 5), (5.0, 1.0, 2.0, 4.0, 3.0))]
    recs.append(record(9, 7.0, workload="mc-triangles", failed=1))
    out = bench_summary.summarise("x", recs)
    lab = out["workloads"]["exact-lab"]
    assert lab["seeds"] == [1, 2, 3, 4, 5] and lab["runs"] == 5
    assert lab["metrics"]["ops_per_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    mc = out["workloads"]["mc-triangles"]
    assert mc["metrics"]["ops_per_s"]["iqr"] == 0.0 and mc["failed_ops"] == 1
    assert out["provenance"]["source_sha256"] == "abc"


def test_summary_names_the_op_kinds_at_the_p50_and_tail_ranks(tmp_path, capsys, monkeypatch):
    # 12 ops a run: op_p50_s averages ranks 6 and 7, and op_tail_s is rank 2 (as written in "tail")
    def run(seed, fast):
        times = [("a", 1.0 + 0.01 * i) for i in range(fast)] + [("b", 2.0 + 0.01 * i) for i in range(9 - fast)]
        times += [("c", 3.0), ("c", 3.5), ("d", 0.5)]
        rec = record(seed, 1.0, ops=[(i, kind, sec, None) for i, (kind, sec) in enumerate(times)])
        rec["tail"] = {"percentile": 10, "rank": 2, "ops": 12}
        return rec

    # seed 1 ranks d, a x5, b x4, c x2: ranks 6 and 7 are a and b; seed 2 ranks d, a x6, ...: a and a
    recs = [run(1, 5), run(2, 6)]
    kinds = bench_summary.summarise("x", recs)["workloads"]["exact-lab"]["op_kinds"]
    assert list(kinds) == ["a", "b", "c", "d"]
    assert [kinds[k]["at_p50"] for k in kinds] == [3, 1, 0, 0]
    assert [kinds[k]["at_tail"] for k in kinds] == [2, 0, 0, 0]
    assert kinds["c"] == {"median_s": 3.25, "ops": 4, "at_p50": 0, "at_tail": 0}
    assert kinds["b"]["median_s"] == pytest.approx(2.01) and kinds["b"]["ops"] == 7
    # a traced record has no "tail": its op times count, its ranks do not
    traced = run(3, 5)
    del traced["tail"]
    traced["provenance"]["traced"] = True
    out = bench_summary.summarise("x", [*recs, traced])["workloads"]
    assert out["exact-lab"]["op_kinds"] == kinds and out["exact-lab-traced"]["op_kinds"]["a"]["at_p50"] == 0

    monkeypatch.setattr(bench_summary, "ROOT", tmp_path)
    paths = _write(tmp_path, "rec", recs)
    assert bench_summary.main(["x", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("exact-lab: op kind") and lines[1].split() == ["a", "1.020000", "11", "3", "2"]
    assert json.loads((tmp_path / "BENCH_x.json").read_text())["workloads"]["exact-lab"]["op_kinds"] == kinds


def test_summary_refuses_records_of_different_sources():
    with pytest.raises(ValueError, match="source_sha256"):
        bench_summary.summarise("x", [record(1, 1.0), record(2, 1.0, source="def")])


@pytest.mark.parametrize("label", ["a/b", "", "../x", ".hidden", "-x"])
def test_bad_label_exits_2_and_writes_nothing(label, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_summary, "ROOT", tmp_path / "root")
    (tmp_path / "root").mkdir()
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps(record(1, 1.0)))
    assert bench_summary.main([label, str(rec)]) == 2
    assert "label" in capsys.readouterr().err
    assert not any((tmp_path / "root").iterdir())
    # the label is checked before any record is read
    assert bench_summary.main([label, str(tmp_path / "missing.json")]) == 2
    assert "label" in capsys.readouterr().err


def _write(tmp_path, name, records):
    paths = []
    for rec in records:
        path = tmp_path / f"{name}-{rec['provenance']['workload']}-{rec['provenance']['seed']}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    return paths


def test_pairs_apply_the_claim_rule_in_each_metrics_direction(tmp_path, capsys):
    # parent ops_per_s 7.0..7.9 (IQR 0.45); the change wins 9 of 10 pairs by about 1.0
    parent = [record(s, 7.0 + 0.1 * s, workload="mc-triangles", source="old", op_p50_s=0.1) for s in range(10)]
    change = [record(s, 8.0 + 0.1 * s, workload="mc-triangles", source="new", op_p50_s=0.1 - 0.001 * s)
              for s in range(10)]
    change[3]["metrics"]["ops_per_s"] = 7.0
    groups = bench_pairs.pair(parent, change)
    assert list(groups) == ["mc-triangles"] and len(groups["mc-triangles"]) == 10
    ops = bench_pairs.compare(groups["mc-triangles"], "ops_per_s", "higher")
    assert ops["wins"] == 9 and ops["parent"] == bench_summary.spread([7.0 + 0.1 * s for s in range(10)])
    assert ops["gap"] == pytest.approx(1.0) and ops["claim"]
    # lower is better for op_p50_s, and the seed-0 tie counts for neither side
    p50 = bench_pairs.compare(groups["mc-triangles"], "op_p50_s", "lower")
    assert p50["wins"] == 9 and p50["gap"] == pytest.approx(0.0045) and p50["claim"]
    # fewer than ten pairs, or a win in every pair by less than the parent's IQR, claim nothing
    assert not bench_pairs.compare(groups["mc-triangles"][:9], "ops_per_s", "higher")["claim"]
    close = [(p, dict(c, metrics={"ops_per_s": p["metrics"]["ops_per_s"] + 0.05})) for p, c in groups["mc-triangles"]]
    row = bench_pairs.compare(close, "ops_per_s", "higher")
    assert row["wins"] == 10 and not row["claim"]

    argv = [*_write(tmp_path, "parent", parent), "--", *_write(tmp_path, "change", change)]
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "ops_per_s (higher is better)" in out and "op_p50_s (lower is better)" in out
    assert out.count("wins 9/10") == 2 and out.count("claim holds") == 2
    # each op kind's median and rank counts, parent -> change; these records carry no tail rank
    assert out.splitlines()[-1] == "    step: 1.000000 -> 1.000000, p50 0 -> 0, tail 0 -> 0"


def test_pairs_give_each_op_kinds_median_and_rank_counts():
    # 12 ops a run, as in the summary's test: op_p50_s averages ranks 6 and 7,
    # op_tail_s is rank 2.  Parent: d, a x5, b x4, c x2, so a and b sit at
    # ranks 6 and 7 and a at rank 2.  The change halves every b op (b ties
    # sort after a) and trades d for a slow e: a, b, b, a, b, b, a x3, c x2, e
    def run(seed, source, b_scale, last):
        times = [("a", 1.0 + 0.01 * i) for i in range(5)] + [("b", b_scale * (2.0 + 0.01 * i)) for i in range(4)]
        times += [("c", 3.0), ("c", 3.5), last]
        rec = record(seed, 1.0, source=source, ops=[(i, kind, sec, None) for i, (kind, sec) in enumerate(times)])
        rec["tail"] = {"percentile": 10, "rank": 2, "ops": 12}
        return rec

    pairs = [(run(s, "old", 1.0, ("d", 0.5)), run(s, "new", 0.5, ("e", 9.0))) for s in range(3)]
    lines = bench_pairs.kind_lines(pairs)
    assert lines[0].startswith("  op kind: median s")
    assert lines[1:] == [
        "    a: 1.020000 -> 1.020000, p50 3 -> 3, tail 3 -> 0",
        "    b: 2.015000 -> 1.007500, p50 3 -> 3, tail 0 -> 3",
        "    c: 3.250000 -> 3.250000, p50 0 -> 0, tail 0 -> 0",
        "    d: 0.500000 -> -, p50 0 -> -, tail 0 -> -",
        "    e: - -> 9.000000, p50 - -> 0, tail - -> 0",
    ]


def test_pairs_apply_the_mirrored_regression_rule(tmp_path, capsys):
    # the change loses 9 of 10 pairs by about 1.0 against a parent IQR of 0.45
    parent = [record(s, 7.0 + 0.1 * s, source="old", op_p50_s=0.1) for s in range(10)]
    change = [record(s, 6.0 + 0.1 * s, source="new", op_p50_s=0.1 + 0.001 * s) for s in range(10)]
    change[3]["metrics"]["ops_per_s"] = 8.0
    pairs = bench_pairs.pair(parent, change)["exact-lab"]
    ops = bench_pairs.compare(pairs, "ops_per_s", "higher")
    assert (ops["wins"], ops["losses"]) == (1, 9) and ops["gap"] == pytest.approx(-0.9)
    assert ops["regression"] and not ops["claim"]
    # lower is better for op_p50_s: a rising latency regresses, and the seed-0 tie counts for neither side
    p50 = bench_pairs.compare(pairs, "op_p50_s", "lower")
    assert (p50["wins"], p50["losses"]) == (0, 9) and p50["regression"]
    # fewer than ten pairs, or a loss in every pair by less than the parent's IQR, find no regression
    assert not bench_pairs.compare(pairs[:9], "ops_per_s", "higher")["regression"]
    close = [(p, dict(c, metrics={"ops_per_s": p["metrics"]["ops_per_s"] - 0.05})) for p, c in pairs]
    row = bench_pairs.compare(close, "ops_per_s", "higher")
    assert row["losses"] == 10 and not row["regression"]

    argv = [*_write(tmp_path, "parent", parent), "--", *_write(tmp_path, "change", change)]
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("losses 9/10") == 2 and out.count("regression holds") == 2
    assert out.count("claim does not hold") == 2


def test_pairs_judge_a_worsening_against_the_metrics_bound(tmp_path, capsys):
    # peak_rss_mb 63.30 -> 63.82 MB (+0.8%), lost in 9 of 10 pairs against a parent IQR of 0.02 MB:
    # the IQR rule flags it, but it is well inside the 10% bound BENCHMARK.json sets
    parent = [record(s, 1.0, source="old", peak_rss_mb=63.28 + 0.01 * (s % 5)) for s in range(10)]
    change = [record(s, 1.0, source="new", peak_rss_mb=63.82) for s in range(10)]
    change[3]["metrics"]["peak_rss_mb"] = 63.0
    pairs = bench_pairs.pair(parent, change)["exact-lab"]
    rss = bench_pairs.compare(pairs, "peak_rss_mb", "lower", 0.1)
    assert rss["parent"]["median"] == pytest.approx(63.30) and rss["losses"] == 9 and rss["regression"]
    assert rss["moved"] == pytest.approx(0.52 / 63.30) and rss["past_bound"] is False
    # past the bound: 63.30 -> 70.0 MB (+10.6%); a metric without a bound gets no bound verdict
    far = [(p, dict(c, metrics={"peak_rss_mb": 70.0})) for p, c in pairs]
    assert bench_pairs.compare(far, "peak_rss_mb", "lower", 0.1)["past_bound"] is True
    assert bench_pairs.compare(pairs, "peak_rss_mb", "lower")["past_bound"] is None
    # ops_per_s did not move: +0.00%, and a gain is never past the bound
    assert bench_pairs.compare(pairs, "ops_per_s", "higher", 0.25)["moved"] == 0.0

    argv = [*_write(tmp_path, "parent", parent), "--", *_write(tmp_path, "change", change)]
    assert bench_pairs.main(argv) == 0
    rss_line = next(line for line in capsys.readouterr().out.splitlines() if "peak_rss_mb" in line)
    assert "regression holds" in rss_line
    assert rss_line.endswith("moved +0.82% of the parent median, bound 10%, worse past it does not hold")


def test_pairs_refuse_unpaired_and_mixed_records(tmp_path, capsys):
    parent = _write(tmp_path, "parent", [record(1, 1.0), record(2, 1.0)])
    change = _write(tmp_path, "change", [record(1, 2.0, source="new")])
    assert bench_pairs.main([*parent, "--", *change]) == 2
    assert "no partner for exact-lab seed 2" in capsys.readouterr().err
    mixed = _write(tmp_path, "mixed", [record(1, 2.0, source="new"), record(2, 2.0, source="other")])
    assert bench_pairs.main([*parent, "--", *mixed]) == 2
    assert "source_sha256" in capsys.readouterr().err
    for argv in ([*parent, *change], ["--", *change], [*parent, "--"]):
        assert bench_pairs.main(argv) == 2
