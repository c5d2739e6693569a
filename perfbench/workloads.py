"""The benchmark's workloads: their ops, how an op runs, and its oracle.

An op is one CLI command (``cliquellt.cli.main(argv)`` in-process, stdout
captured) or one library round-trip.  Seeded op ``i`` of a run with workload
seed ``s`` uses seed ``s + i``.  Oracles run outside the op's timed interval
and never call the library, so a traced run records no span for them.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Any

from cliquellt import cli, cliques, distributions, ground, pbf

from tracing import Tracer

CHF_GRID = ("--t-min", "0", "--t-max", "8", "--t-steps", "17", "--format", "json")
# |phi(1)| of the standardized count must lie this close to the Gaussian e^{-1/2},
# beyond 3 standard errors; n=30 is not yet in the limit.
CHF_BAND = 0.05
LAB_N, LAB_R, LAB_P = 7, 3, 0.5
LLT_SAMPLES = 20000
LAB_R4_SAMPLES = 200


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    argv: tuple[str, ...] | None  # None for a library round-trip
    graphs: int  # G(n,p) samples the op draws


@dataclass(frozen=True)
class Workload:
    name: str
    round_len: int  # ops per round of the step cycle
    rounds: int  # >0: untraced runs do this many whole rounds, not a time budget
    warmup_index: int  # the op run once in set-up, then again timed: outputs must match
    trace_ops: int  # fixed op count of a traced run, so its counts repeat exactly

    def op(self, seed: int, index: int) -> Op:
        return _OP_BUILDERS[self.name](seed, index)


def _chf_scan(r: int, samples: int, workers: int, seed: int, index: int) -> Op:
    argv = (
        "chf-scan", "--n", "30", "--r", str(r), "--p", "0.5", "--samples", str(samples),
        "--workers", str(workers), *CHF_GRID, "--seed", str(seed + index),
    )
    return Op(index, "chf-scan", argv, samples)


def _llt_graphs(n_max: int) -> int:
    """llt-verify draws LLT_SAMPLES graphs for every n too large to enumerate."""
    big = [n for n in range(5, n_max + 1) if n * (n - 1) // 2 > cliques.EXACT_DISTRIBUTION_EDGE_CAP]
    return LLT_SAMPLES * len(big)


def _exact_lab(seed: int, index: int) -> Op:
    s = str(seed + index)
    steps = (
        ("exact-dist", ("exact-dist", "--n", "7", "--r", "3"), 0),
        ("llt-verify", ("llt-verify", "--n", "10", "--r", "3", "--samples", str(LLT_SAMPLES), "--seed", s),
         _llt_graphs(10)),
        ("decoupling-check", ("decoupling-check", "--n", "6", "--r", "3", "--samples", "2000", "--seed", s), 0),
        ("bounds-check", ("bounds-check", "--p", "0.4"), 0),
        ("moments", ("moments", "--n", "7", "--r", "3"), 0),
        ("inversion", None, 0),
        ("transform", None, 0),
        # the r>=4 path (bit building, count_cliques) at a small share of the round
        ("chf-scan", _chf_scan(4, LAB_R4_SAMPLES, 4, seed, index).argv, LAB_R4_SAMPLES),
    )
    kind, argv, graphs = steps[index % len(steps)]
    return Op(index, kind, argv, graphs)


_OP_BUILDERS = {
    "mc-triangles": lambda seed, i: _chf_scan(3, 20000, 4, seed, i),
    "mc-cliques": lambda seed, i: _chf_scan(4, 1000, 4, seed, i),
    "exact-lab": _exact_lab,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-triangles", 1, 0, 0, 8),
        # Runnable, but not in BENCHMARK.json: on a shared 2-core host its
        # pure-Python op slows up to 1.9x for minutes at a time (0.41 s to
        # 0.80 s), so ten-run sets spread 0.26-0.45 of their median, past the
        # 0.25 bound.  exact-lab carries a small op of the same r=4 path.
        Workload("mc-cliques", 1, 0, 0, 8),
        # Its steps differ 100-fold in cost, so under a time budget a speed-up
        # would change the op mix; whole rounds keep it fixed.  A round took
        # about 8.6 s on a 2-core Xeon, so 6 rounds fill a 50 s run and
        # op_tail_s (rank 38 of 48) falls inside the slowest steps, inversion
        # and decoupling-check.
        Workload("exact-lab", 8, 6, 1, 8),
    )
}


@dataclass
class Inputs:
    """What the ops and oracles of a workload need, built before any timing."""

    law: Any = None  # exact law of the n=7 triangle count
    hint: float = 0.0
    mu: float = 0.0
    sigma2: float = 0.0
    fr_coeffs: dict = field(default_factory=dict)


def build_inputs(workload: Workload) -> Inputs:
    if workload.name != "exact-lab":
        return Inputs()
    spec = cliques.CliqueSpec(n=LAB_N, r=LAB_R, p=LAB_P)
    law = cliques.exact_distribution(spec)
    mom = cliques.moments(spec)
    return Inputs(
        law=law,
        hint=max(abs(x) for x in law.mass),
        mu=mom.mu,
        sigma2=mom.sigma2,
        fr_coeffs=dict(cliques.fr_function(spec).coeffs),
    )


def execute(op: Op, inputs: Inputs, tracer: Tracer) -> Any:
    """Run one op: the timed part.  CLI ops return (exit code, stdout)."""
    if op.argv is not None:
        buf = io.StringIO()
        with tracer.span("cli." + op.argv[0]), redirect_stdout(buf):
            try:
                rc = cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, buf.getvalue()
    if op.kind == "inversion":
        law = inputs.law
        chf = _counting_chf(law.chf, tracer) if tracer.active else law.chf
        return [
            distributions.lattice_inversion(chf, law.lattice, x, freq_hint=inputs.hint) for x in law.mass
        ]
    if op.kind == "transform":
        table = cliques.counts_over_all_graphs(LAB_N, LAB_R)
        return pbf.fourier_transform(table, ground.EdgeGround(LAB_N), LAB_P).coeffs
    raise ValueError(f"unknown op kind {op.kind!r}")


def _counting_chf(chf, tracer: Tracer):
    """The chf handed to lattice_inversion, counting the points it is evaluated at."""

    def counted(t):
        value = chf(t)
        tracer.count("distributions.lattice_inversion.chf_points", int(getattr(t, "size", 1)))
        return value

    return counted


def render(out: Any) -> str:
    """Canonical text of an op's output, compared byte for byte for determinism."""
    if isinstance(out, tuple):
        return f"exit={out[0]}\n{out[1]}"
    if isinstance(out, dict):
        return json.dumps(sorted((sorted(k), v) for k, v in out.items()))
    return json.dumps(out)


def check(op: Op, out: Any, inputs: Inputs, tracer: Tracer) -> str | None:
    """The op's oracle: None when the output is right, else what is wrong."""
    if op.argv is not None:
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        if op.kind == "chf-scan":
            return _check_chf_scan(text)
        if op.kind == "exact-dist":
            return _check_exact_dist(text, inputs)
        return None
    if op.kind == "inversion":
        masses = list(inputs.law.mass.values())
        ok = sum(abs(v - m) < 1e-8 for v, m in zip(out, masses))
        tracer.count("distributions.lattice_inversion.ok", ok)
        return None if ok == len(masses) == len(out) else f"{len(masses) - ok} inverted masses off by >= 1e-8"
    if op.kind == "transform":
        ref = inputs.fr_coeffs
        bad = [k for k in set(out) | set(ref) if abs(out.get(k, 0.0) - ref.get(k, 0.0)) > 1e-10]
        return None if not bad else f"{len(bad)} coefficients differ from fr_function by > 1e-10"
    return f"no oracle for {op.kind!r}"


def _check_chf_scan(text: str) -> str | None:
    rows = json.loads(text)["rows"]
    t0, re0, im0, _ = rows[0]
    if (t0, re0, im0) != (0.0, 1.0, 0.0):
        return f"t=0 row is {rows[0]}, expected (1, 0)"
    if any(math.hypot(re, im) > 1.0 + 1e-12 for _, re, im, _ in rows):
        return "|phi(t)| > 1"
    at1 = [row for row in rows if row[0] == 1.0]
    if not at1:
        return "no t=1 row"
    _, re, im, se = at1[0]
    gap = abs(math.hypot(re, im) - math.exp(-0.5))
    if gap > CHF_BAND + 3.0 * se:
        return f"|phi(1)| is {gap:.4g} from e^(-1/2), band {CHF_BAND + 3.0 * se:.4g}"
    return None


def _check_exact_dist(text: str, inputs: Inputs) -> str | None:
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    pairs = [tuple(map(float, line.split(","))) for line in body[1:]]
    total = sum(m for _, m in pairs)
    mean = sum(x * m for x, m in pairs)
    var = sum((x - mean) ** 2 * m for x, m in pairs)
    if abs(total - 1.0) > 1e-12:
        return f"mass sums to {total!r}"
    if abs(mean - inputs.mu) > 1e-9 or abs(var - inputs.sigma2) > 1e-9:
        return f"mean/variance {mean!r}/{var!r} differ from moments {inputs.mu!r}/{inputs.sigma2!r}"
    return None
