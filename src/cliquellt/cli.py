"""Experiment CLI: reproducible, seeded runs emitting plot-ready CSV/JSON.

Exit code is 0 iff every asserted inequality passed, 1 if one failed and 2
for bad arguments or a library error (one line on stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .bounds import (
    BoundParams,
    HypParams,
    bernoulli_chf_bound,
    bernoulli_chf_exact,
    berry_esseen_gap,
    berry_esseen_ln,
    hyperconc_moment,
    hyperconc_tail,
    mainchf_bound,
)
from .cliques import CliqueSpec, counts_over_all_graphs, exact_distribution, fr_function, kappa_function, moments
from .decoupling import build_color_partition, decoupling_check, exact_chf
from .distributions import LatticeSpec, discrete_gaussian, l1_distance, linf_distance
from .errors import CapacityError, DomainError
from .pbf import TABLE_EDGE_CAP, _value_law
from .sampling import MCConfig, empirical_chf_grid, sample_clique_laws, sample_kappa


# every option a subcommand may read, keyed by dest: (flag, type, default)
_OPTIONS = {
    "n": ("--n", int, 6), "r": ("--r", int, 3), "prob": ("--p", float, 0.5),
    "seed": ("--seed", int, 0), "samples": ("--samples", int, 10000), "workers": ("--workers", int, 1),
    "t_min": ("--t-min", float, 0.0), "t_max": ("--t-max", float, 3.0), "t_steps": ("--t-steps", int, 13),
}
_SPEC = ("n", "r", "prob")
_MC = (*_SPEC, "seed", "samples", "workers")


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: getattr(args, k) for k in args.options} | {"version": __version__}


def _emit(args, columns: list[str], rows: list[list], extra: dict | None = None) -> None:
    cfg = _config_dict(args)
    if args.format == "json":
        payload = {"config": cfg, "columns": columns, "rows": rows}
        if extra:
            payload["summary"] = extra
        text = json.dumps(payload, indent=2)
    else:
        lines = [f"# {k}={v}" for k, v in cfg.items()]
        if extra:
            lines += [f"# {k}={v}" for k, v in extra.items()]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec(args) -> CliqueSpec:
    return CliqueSpec(n=args.n, r=args.r, p=args.prob)


# -- subcommands ---------------------------------------------------------------


def cmd_moments(args) -> int:
    spec = _spec(args)
    mom = moments(spec)
    rows = [
        ["mu", mom.mu],
        ["sigma2", mom.sigma2],
        ["sigma", mom.sigma],
        ["weight_deg1", mom.weight_deg1],
        ["weight_tail", mom.weight_tail],
    ]
    extra = {}
    ok = True
    if spec.ground.size <= TABLE_EDGE_CAP:
        dist = exact_distribution(spec)
        enum_mu, enum_sigma2 = dist.mean(), dist.variance()
        extra["enum_mu"] = f"{enum_mu:.17g}"
        extra["enum_sigma2"] = f"{enum_sigma2:.17g}"
        ok = abs(enum_mu - mom.mu) < 1e-9 and abs(enum_sigma2 - mom.sigma2) < 1e-9
        rows += [["enum_mu", enum_mu], ["enum_sigma2", enum_sigma2]]
    _emit(args, ["quantity", "value"], rows, extra)
    return 0 if ok else 1


def cmd_exact_dist(args) -> int:
    spec = _spec(args)
    dist = exact_distribution(spec)
    gauss = discrete_gaussian(LatticeSpec(0.0, 1.0), spec.mu, spec.sigma)
    linf = linf_distance(dist, gauss)
    l1 = l1_distance(dist, gauss)
    rows = [[x, m] for x, m in dist.mass.items()]
    extra = {
        "sigma": f"{spec.sigma:.17g}",
        "linf": f"{linf:.17g}",
        "l1": f"{l1:.17g}",
        "scaled_linf": f"{spec.sigma * linf:.17g}",
    }
    _emit(args, ["value", "probability"], rows, extra)
    return 0


def cmd_llt_verify(args) -> int:
    mc = MCConfig(seed=args.seed, samples=args.samples, workers=args.workers)
    first = max(5, args.r)  # sigma = 0 below n = r
    specs = [CliqueSpec(n=n, r=args.r, p=args.prob) for n in range(first, args.n + 1)]
    exact = [spec for spec in specs if spec.ground.size <= TABLE_EDGE_CAP]
    if len(exact) < 2:  # the trend compares the exact rows
        raise DomainError(
            f"llt-verify needs two exact rows (C(n,2) <= {TABLE_EDGE_CAP}) from n = {first} to --n {args.n},"
            f" got {len(exact)}"
        )
    # every n beyond the enumeration cap comes from one pass of draws
    dists = [exact_distribution(spec) for spec in exact] + sample_clique_laws(specs[len(exact) :], mc)
    rows = []
    for spec, dist in zip(specs, dists):
        gauss = discrete_gaussian(LatticeSpec(0.0, 1.0), spec.mu, spec.sigma)
        rows.append([spec.n, linf_distance(dist, gauss), l1_distance(dist, gauss), spec.sigma])
    scaled = [spec.sigma * linf for spec, (_, linf, *_) in zip(exact, rows)]
    decreasing = all(b < a for a, b in zip(scaled, scaled[1:]))
    _emit(args, ["n", "linf", "l1", "sigma"], rows, {"scaled_linf_decreasing": decreasing})
    return 0 if decreasing else 1


def cmd_chf_scan(args) -> int:
    if not (args.t_steps >= 1 and math.isfinite(args.t_min) and math.isfinite(args.t_max)):
        raise DomainError(
            f"need finite --t-min, --t-max and --t-steps >= 1, got {args.t_min}, {args.t_max}, {args.t_steps}"
        )
    spec = _spec(args)
    mc = MCConfig(seed=args.seed, samples=args.samples, workers=args.workers)
    ts = np.linspace(args.t_min, args.t_max, args.t_steps)
    kappa = sample_kappa(spec, mc)
    ests = empirical_chf_grid(kappa, ts)
    rows = [[est.t, est.value.real, est.value.imag, est.stderr] for est in ests]
    extra = {}
    if args.self_check:
        doubled = empirical_chf_grid(sample_kappa(spec, mc.doubled()), ts)
        extra["self_check_max_delta"] = f"{max(abs(a.value - b.value) for a, b in zip(ests, doubled)):.17g}"
    _emit(args, ["t", "re", "im", "stderr"], rows, extra)
    return 0


def cmd_decoupling_check(args) -> int:
    spec = _spec(args)
    half = spec.n // 2 + spec.n % 2
    part = build_color_partition(spec.n, 1, [half, spec.n - half])
    mc = MCConfig(seed=args.seed, samples=args.samples, workers=args.workers)
    ts = (0.5, 1.0, 2.0)
    checks = decoupling_check(counts_over_all_graphs(spec.n, spec.r), part, spec.p, ts, mc)
    rows = [[t, chk.lhs, chk.rhs, chk.rhs_stderr, int(chk.holds)] for t, chk in zip(ts, checks)]
    all_ok = all(chk.holds for chk in checks)
    _emit(args, ["t", "lhs", "rhs", "rhs_stderr", "pass"], rows, {"all_pass": all_ok})
    return 0 if all_ok else 1


def cmd_bounds_check(args) -> int:
    p = args.prob
    spec = CliqueSpec(n=4, r=3, p=p)  # checks p before the chi grid below takes sqrt(p(1-p))
    rows = []
    ok = True

    def record(name: str, margin: float) -> None:
        nonlocal ok
        passed = margin >= 0
        ok = ok and passed
        rows.append([name, margin, int(passed)])

    # Bernoulli chf bound on a grid of valid t
    worst = math.inf
    for variant, cap in (("Y", math.pi / 2), ("x", math.pi), ("chi", math.sqrt(p * (1 - p)) * math.pi)):
        for t in np.linspace(0.0, cap * 0.999, 50):
            worst = min(worst, bernoulli_chf_bound(float(t), p, variant) - bernoulli_chf_exact(float(t), p, variant))
    record("bernoulli_chf", worst)

    # Berry-Esseen gap on a grid
    worst = math.inf
    for n in (20, 50):
        cap = 1.0 / (4.0 * berry_esseen_ln(n, p))
        for t in np.linspace(min(0.01, cap / 2), cap, 40):
            bound, gap = berry_esseen_gap(n, p, float(t))
            worst = min(worst, bound - gap)
    record("berry_esseen", worst)

    # hypercontractive moment bound against an exact 4th moment (n=4, f = kappa-style quadratic)
    f = fr_function(spec).tail(1)
    vals, masses = _value_law(f.table(), p)
    exact4 = float(np.sum(masses * vals**4))
    hp = HypParams(d=f.degree(), lam=spec.lam)
    record("hyperconc_moment", hyperconc_moment(hp, f.norm2(), 2.0) - exact4)

    # hypercontractive tail bound at the smallest valid threshold (probability <= 1 trivially below)
    tmin = (2 * math.e / hp.lam) ** (hp.d / 2.0)
    exceed = float(np.sum(masses * (np.abs(vals) >= tmin * f.norm2())))
    record("hyperconc_tail", hyperconc_tail(hp, f.norm2(), tmin) - exceed)

    # mainchf bound on n=5: X = degree-1 part of kappa (an edge sum), Y = its degree->=2 part
    kap = kappa_function(CliqueSpec(n=5, r=3, p=p))
    x_part = kap.degree_slice(1)
    y_part = kap.tail(1)
    a2 = max(c * c for c in x_part.coeffs.values())
    bp = BoundParams(
        ell=2,
        d=y_part.degree(),
        t=0.0,
        T=x_part.variance(),
        delta=a2,
        eta=y_part.norm2(),
        spectral1=y_part.spectral_norm1(),
        lam=spec.lam,
    )
    bp = dataclasses.replace(bp, t=min(0.5, bp.t_limit / 2))  # t = 0.5 unless p is near 0 or 1
    gap = abs(exact_chf(kap, bp.t) - exact_chf(x_part, bp.t))
    record("mainchf", mainchf_bound(bp) - float(gap))

    _emit(args, ["name", "margin", "pass"], rows, {"all_pass": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cliquellt", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in (
        ("moments", cmd_moments, _SPEC),
        ("exact-dist", cmd_exact_dist, _SPEC),
        ("llt-verify", cmd_llt_verify, _MC),
        ("chf-scan", cmd_chf_scan, (*_MC, "t_min", "t_max", "t_steps")),
        ("decoupling-check", cmd_decoupling_check, _MC),
        ("bounds-check", cmd_bounds_check, ("prob",)),
    ):
        sp = sub.add_parser(name)
        for dest in options:
            flag, kind, default = _OPTIONS[dest]
            sp.add_argument(flag, dest=dest, type=kind, default=default)
        sp.add_argument("--out", type=str, default="")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "chf-scan":
            sp.add_argument("--self-check", action="store_true")
        sp.set_defaults(func=fn, options=options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built once per process, as parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


def _program() -> int:
    """The command-line program: a library error prints one line to stderr and
    returns 2, as a usage error does.  In-process callers of main get the exception."""
    try:
        return main()
    except (DomainError, CapacityError) as exc:
        print(f"cliquellt: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(_program())
