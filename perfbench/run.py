"""Benchmark of the cliquellt lab: end-to-end metrics, or per-layer ones when traced.

    python3 perfbench/run.py --workload mc-triangles --seed 1 --seconds 50 --trace 0
    for w in mc-triangles exact-lab mc-cliques; do python3 perfbench/run.py --workload $w --seed 1; done
    python3 -m pytest perfbench      # the harness's own self-tests

Run from the root of a source checkout: the library is imported from
``src/`` and nowhere else.  The load is one closed-loop client in this
process, one op at a time; the benchmark starts no threads.  Untraced runs
(``--trace 0``) time ops for about ``--seconds`` (see ``timed_loop``) and
print the ``end_to_end`` metrics of BENCHMARK.json.  Traced runs
(``--trace 1``) run each op of a fixed schedule twice, untraced then traced,
so their counts repeat exactly, and print the ``per_layer`` metrics.  Every op's output is checked by an oracle outside its
timed interval.  The last stdout line is the JSON result; a record with
provenance (and the spans, when traced) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_OPS = 11  # the tail percentile needs at least 10 ops beyond it
SETUP_PROBES = 6  # half before the timed ops and half after, so they span the run
SPAN_STATS = ("calls", "busy_s", "self_s")


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def import_library() -> None:
    """Put the checkout's ``src`` first on the path and import cliquellt from it.

    The sibling modules that import cliquellt (``workloads``) are therefore
    imported inside functions, after this has run.
    """
    src = ROOT / "src"
    if not (src / "cliquellt" / "__init__.py").is_file():
        raise SetupError(f"no cliquellt sources under {src}")
    sys.path.insert(0, str(src))
    for key in [k for k in os.environ if k.startswith("CLIQUELLT_")]:
        del os.environ[key]  # the CLI reads defaults from these; pin the configs
    import cliquellt

    if Path(cliquellt.__file__).resolve().parent != (src / "cliquellt").resolve():
        raise SetupError(f"cliquellt imported from {cliquellt.__file__}, not from {src}")


# -- percentiles and metrics ----------------------------------------------------


def tail_rank(n: int) -> tuple[int, int] | None:
    """(q, rank): the highest integer percentile q whose nearest-rank order
    statistic has at least 10 of the n ops beyond it, and that 1-based rank."""
    if n < MIN_OPS:
        return None
    q = (100 * (n - 10)) // n
    return q, max(1, math.ceil(q * n / 100))


@dataclass
class OpResult:
    index: int
    kind: str
    seconds: float
    graphs: int
    text: str | None  # rendered output, None when the op raised
    error: str | None


def run_op(op, inputs, tracer) -> OpResult:
    from workloads import check, execute, render

    tracer.op = op.index
    start = time.perf_counter()
    try:
        out = execute(op, inputs, tracer)
    except Exception as exc:  # a failing op is counted and the run goes on
        return OpResult(op.index, op.kind, time.perf_counter() - start, op.graphs, None,
                        f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return OpResult(op.index, op.kind, seconds, op.graphs, render(out), check(op, out, inputs, tracer))


def end_to_end(results: list[OpResult], setup_s: float) -> dict[str, float]:
    times = [r.seconds for r in results]
    busy = sum(times)
    q, rank = tail_rank(len(times))
    failed = sum(r.error is not None for r in results)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / busy,
        "op_p50_s": statistics.median(times),
        "op_tail_s": sorted(times)[rank - 1],
        "graphs_per_s": sum(r.graphs for r in results) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_op_ratio": 1.0 - failed / len(results),
    }


def layer_targets() -> list[tuple]:
    """(span name, library function, counter) for every traced layer boundary."""
    from cliquellt import bounds, cliques, decoupling, distributions, pbf, sampling

    def arg(args, kwargs, pos, name):
        return kwargs[name] if name in kwargs else args[pos]

    return [
        ("sampling.sample_clique_counts", sampling.sample_clique_counts,
         lambda a, k, r: {"sampling.graphs": arg(a, k, 1, "mc").samples}),
        ("sampling.empirical_chf_grid", sampling.empirical_chf_grid,
         lambda a, k, r: {"sampling.empirical_chf_grid.chf_points": len(r)}),
        ("cliques.count_cliques", cliques.count_cliques, None),
        ("cliques.exact_distribution", cliques.exact_distribution,
         lambda a, k, r: {"cliques.exact_distribution.assignments": 2 ** arg(a, k, 0, "spec").ground.size}),
        ("cliques.fr_function", cliques.fr_function, None),
        ("cliques.moments", cliques.moments, None),
        ("decoupling.exact_chf", decoupling.exact_chf,
         lambda a, k, r: {"decoupling.exact_chf.assignments": 2 ** arg(a, k, 0, "f").ground.size}),
        ("decoupling.decoupling_check", decoupling.decoupling_check, None),
        ("decoupling.alpha_transform", decoupling.alpha_transform, None),
        ("distributions.lattice_inversion", distributions.lattice_inversion, None),
        ("distributions.discrete_gaussian", distributions.discrete_gaussian, None),
        ("distributions.distances", distributions.linf_distance, None),
        ("distributions.distances", distributions.l1_distance, None),
        # defined in sampling; it builds a distributions.EmpiricalDistribution
        ("distributions.empirical_distribution", sampling.empirical_distribution, None),
        ("pbf.fourier_transform", pbf.fourier_transform,
         lambda a, k, r: {"pbf.fourier_transform.coeffs_out": len(r.coeffs)}),
        *[("bounds", fn, None) for fn in (
            bounds.bernoulli_chf_bound, bounds.bernoulli_chf_exact, bounds.berry_esseen_ln,
            bounds.berry_esseen_gap, bounds.hyperconc_tail, bounds.hyperconc_moment,
            bounds.mainchf_bound,
        )],
    ]


def per_layer(names: list[str], tracer, extra: dict[str, float]) -> dict[str, float]:
    """Resolve each declared per-layer name from ``extra``, the spans or the counters.

    ``<span>.calls|busy_s|self_s`` come from the spans and ``<span>.<counter>``
    from the counters; both are 0 when the workload never reaches that layer.
    """
    from tracing import layer_totals
    from workloads import WORKLOADS

    ops = [w.op(0, i) for w in WORKLOADS.values() for i in range(w.round_len)]
    commands = {op.argv[0] for op in ops if op.argv}
    spans = {name for name, _, _ in layer_targets()} | {"cli." + c for c in commands}
    totals = layer_totals(tracer.spans)
    calls = totals.get("distributions.lattice_inversion", {}).get("calls", 0)
    extra = dict(extra)
    extra["sampling.graphs"] = tracer.counts.get("sampling.graphs", 0)
    extra["distributions.lattice_inversion.ok_ratio"] = (
        tracer.counts.get("distributions.lattice_inversion.ok", 0) / calls if calls else 0.0
    )
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in extra:
            out[name] = extra[name]
        elif span not in spans:
            raise SetupError(f"per-layer metric {name!r} names no traced span")
        elif stat in SPAN_STATS:
            out[name] = totals[span][stat] if span in totals else 0
        else:
            out[name] = tracer.counts.get(name, 0)
    return out


# -- runs -------------------------------------------------------------------------


def timed_loop(workload, seed: int, seconds: float, inputs, tracer) -> list[OpResult]:
    """Ops 0, 1, ...: the workload's fixed count of whole rounds if it sets
    one, else until ``seconds`` of op time and at least MIN_OPS ops."""
    if workload.rounds:
        return [run_op(workload.op(seed, i), inputs, tracer) for i in range(workload.rounds * workload.round_len)]
    results: list[OpResult] = []
    busy = 0.0
    while len(results) < MIN_OPS or busy < seconds:
        results.append(run_op(workload.op(seed, len(results)), inputs, tracer))
        busy += results[-1].seconds
    return results


def with_workers(op, workers: int):
    """The same op with ``--workers`` replaced."""
    argv = list(op.argv)
    argv[argv.index("--workers") + 1] = str(workers)
    return dataclasses.replace(op, argv=tuple(argv))


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh workload process to its first timed op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--probe-setup"]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise SetupError(f"set-up probe failed (exit {proc.returncode}): {out!r}")
    return float(lines[1]) - start


def determinism_errors(reference: OpResult, results: list[OpResult]) -> list[str]:
    """Each op in ``results`` with ``reference``'s index must repeat its output exactly."""
    return [
        f"op {r.index} ({r.kind}) output changed on repeat with the same seed"
        for r in results
        if r.index == reference.index and (r.text is None or r.text != reference.text)
    ]


def run(workload, seed: int, seconds: float, trace: bool, names: list[str], probe) -> dict:
    """One run after set-up: the metrics named in ``names`` plus a record of every op.

    ``probe()`` returns one set-up time; untraced runs take the median of
    SETUP_PROBES of them as ``setup_s``.
    """
    from tracing import Tracer, patched
    from workloads import build_inputs

    inputs = build_inputs(workload)
    plain = Tracer(active=False)
    warmup = run_op(workload.op(seed, workload.warmup_index), inputs, plain)
    record: dict = {}

    if not trace:
        probes = [probe() for _ in range(SETUP_PROBES // 2)]
        results = timed_loop(workload, seed, seconds, inputs, plain)
        probes += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = end_to_end(results, statistics.median(probes))
        record["setup_probes_s"] = probes
        mismatches = determinism_errors(warmup, results)
        q, rank = tail_rank(len(results))
        record["tail"] = {"percentile": q, "rank": rank, "ops": len(results)}
        print(f"op_tail_s is the p{q} op time (rank {rank} of {len(results)} ops)")
    else:
        schedule = [workload.op(seed, i) for i in range(workload.trace_ops)]
        tracer = Tracer(active=True)
        targets = layer_targets()
        untraced, traced = [], []
        cpu_s = wall_s = 0.0
        for op in schedule:  # interleaved, so slow spells of the machine hit both sides
            cpu0, wall0 = time.process_time(), time.perf_counter()
            untraced.append(run_op(op, inputs, plain))
            cpu_s += time.process_time() - cpu0
            wall_s += time.perf_counter() - wall0
            with patched(tracer, targets):
                traced.append(run_op(op, inputs, tracer))
        cpu_util = cpu_s / wall_s
        results = untraced + traced
        mismatches = determinism_errors(warmup, untraced) + [
            f"op {b.index} ({b.kind}) output differs when traced"
            for a, b in zip(untraced, traced) if a.text != b.text
        ]
        untraced_s = sum(r.seconds for r in untraced)
        extra = {
            "process.cpu_util": cpu_util,
            "trace.overhead_ratio": sum(r.seconds for r in traced) / untraced_s,
            "sampling.scaling_eff": 0.0,
        }
        first = schedule[0].argv or ()
        if "--workers" in first:  # the MC workloads: rerun their first op on one worker
            single = run_op(with_workers(schedule[0], 1), inputs, plain)
            results.append(single)
            parallel_rate = sum(r.graphs for r in untraced) / untraced_s
            single_rate = single.graphs / single.seconds
            usable = min(int(first[first.index("--workers") + 1]), os.cpu_count() or 1)
            extra["sampling.scaling_eff"] = parallel_rate / (usable * single_rate)
        metrics = per_layer(names, tracer, extra)
        record["trace"] = tracer.to_json()

    failed = sum(r.error is not None for r in results)
    record.update({
        "correct": failed == 0 and not mismatches and warmup.error is None,
        "attempted": len(results),
        "failed": failed,
        "failed_op_ratio": failed / len(results),
        "errors": [f"op {r.index} ({r.kind}): {r.error}" for r in [warmup, *results] if r.error] + mismatches,
        "metrics": metrics,
        "ops": [[r.index, r.kind, r.seconds, r.error] for r in results],
    })
    return record


# -- provenance and output ------------------------------------------------------


def git_commit() -> str | None:
    """HEAD's commit, or None outside a git checkout or without git."""
    if not (ROOT / ".git").exists():  # not an enclosing repository's HEAD
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cliquellt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc-triangles", "exact-lab", "mc-cliques"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: set up as a run would, print 'ready <time.monotonic()>', exit")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    try:
        import_library()
        if args.probe_setup:
            from tracing import Tracer
            from workloads import WORKLOADS, build_inputs

            workload = WORKLOADS[args.workload]
            inputs = build_inputs(workload)
            run_op(workload.op(args.seed, workload.warmup_index), inputs, Tracer(active=False))
            print("ready", time.monotonic(), flush=True)
            return 0
        from workloads import WORKLOADS

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), list(units),
                     lambda: probe_setup(args.workload, args.seed))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if set(record["metrics"]) != set(units):
        print(f"perfbench: computed metrics {sorted(record['metrics'])} != declared {sorted(units)}",
              file=sys.stderr)
        return 2

    record["provenance"] = provenance(args.workload, args.seed, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))
    print("provenance", json.dumps(record["provenance"], sort_keys=True))
    for error in record["errors"]:
        print("error:", error)
    print(f"failed_op_ratio {record['failed_op_ratio']!r} ({record['failed']} of {record['attempted']} ops)")
    for name, value in record["metrics"].items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
