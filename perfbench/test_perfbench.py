"""Self-tests of the benchmark harness: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in BENCH["end_to_end"]]


class CheapWorkload:
    """``moments --n 4`` ops, milliseconds each; op ``bad`` asks for r=2, which raises."""

    name, round_len, rounds, warmup_index, trace_ops = "selftest", 1, 0, 0, 2

    def __init__(self, bad: int | None = None):
        self.bad = bad

    def op(self, seed: int, index: int) -> workloads.Op:
        r = "2" if index == self.bad else "3"
        return workloads.Op(index, "moments", ("moments", "--n", "4", "--r", r), 0)


def test_tail_rank_leaves_exactly_ten_ops_beyond():
    assert run.tail_rank(10) is None
    assert run.tail_rank(11) == (9, 1)
    assert run.tail_rank(100) == (90, 90)
    assert run.tail_rank(44) == (77, 34)
    for n in range(11, 400):
        q, rank = run.tail_rank(n)
        assert n - rank >= 10
        # one percentile higher would leave fewer than ten ops beyond it
        assert n - max(1, -(-(q + 1) * n // 100)) < 10


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("cli.x", 0.0, 10.0, None, 0),
        Span("lib.a", 1.0, 3.0, 0, 0),
        Span("lib.b", 2.0, 5.0, 0, 0),  # overlaps lib.a: covered part is [1, 5]
        Span("lib.a", 8.0, 12.0, 0, 0),  # clipped to the parent: [8, 10]
        Span("lib.c", 3.5, 4.5, 2, 0),  # grandchild: not subtracted from cli.x
        Span("lib.a", 8.5, 9.0, 3, 0),  # nested re-entry of lib.a
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(4.0 - 0.5)
    totals = tracing.layer_totals(spans)
    assert totals["lib.a"]["calls"] == 3
    assert totals["lib.a"]["busy_s"] == pytest.approx(2.0 + 4.0)  # the nested call is inside busy time
    assert totals["cli.x"]["self_s"] == pytest.approx(4.0)


def test_patched_wraps_every_rebinding_and_restores_it():
    from cliquellt import cli, cliques

    original = cliques.moments
    tracer = Tracer(active=True)
    with tracing.patched(tracer, [("cliques.moments", original, lambda a, k, r: {"n": a[0].n})]):
        assert cli.moments is cliques.moments is not original
        cli.moments(cliques.CliqueSpec(n=5, r=3, p=0.5))
    assert cli.moments is cliques.moments is original
    assert [s.name for s in tracer.spans] == ["cliques.moments"]
    assert tracer.counts["n"] == 5


def test_injected_failing_op_raises_failed_op_ratio():
    clean = run.run(CheapWorkload(), 0, 0.0, False, E2E, lambda: 1.0)
    assert clean["correct"] and clean["failed"] == 0
    assert clean["metrics"]["ok_op_ratio"] == 1.0

    record = run.run(CheapWorkload(bad=3), 0, 0.0, False, E2E, lambda: 1.0)
    assert record["attempted"] == run.MIN_OPS
    assert record["failed"] == 1
    assert record["failed_op_ratio"] == pytest.approx(1 / run.MIN_OPS)
    assert record["metrics"]["ok_op_ratio"] == pytest.approx(1 - 1 / run.MIN_OPS)
    assert not record["correct"]
    assert any("DomainError" in e for e in record["errors"])


def test_determinism_mismatch_is_caught(monkeypatch):
    calls = iter(range(10**6))
    real_render = workloads.render
    monkeypatch.setattr(workloads, "render", lambda out: real_render(out) + str(next(calls)))
    record = run.run(CheapWorkload(), 0, 0.0, False, E2E, lambda: 1.0)
    assert record["failed"] == 0
    assert not record["correct"]
    assert any("changed on repeat" in e for e in record["errors"])


def test_declared_metrics_resolve_and_match_the_layer_map():
    names = [m["name"] for m in BENCH["per_layer"]]
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [name for entry in layer_map["layers"] for name in entry["metrics"]]
    assert sorted(mapped) == sorted(names)
    extra = {"process.cpu_util": 1.0, "trace.overhead_ratio": 1.0, "sampling.scaling_eff": 0.5}
    assert set(run.per_layer(names, Tracer(active=True), extra)) == set(names)
    with pytest.raises(run.SetupError):
        run.per_layer(["cliques.no_such_layer.calls"], Tracer(active=True), extra)
