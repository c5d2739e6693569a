"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned in the assertions; Monte Carlo comparisons allow
3 standard errors.  Oracles are exhaustive enumerations or closed forms
computed independently of the code under test wherever feasible.
"""

import itertools
import math
import time

import numpy as np

from cliquellt import (
    BoundParams,
    CliqueSpec,
    EdgeGround,
    GraphAssignment,
    HypParams,
    LatticeSpec,
    MCConfig,
    PBFunction,
    alpha_pointwise,
    alpha_product_transform,
    alpha_restricted_coeffs,
    alpha_transform,
    bernoulli_chf_bound,
    bernoulli_chf_exact,
    berry_esseen_gap,
    build_clique_partition,
    build_color_partition,
    count_cliques,
    decoupling_check,
    discrete_gaussian,
    empirical_chf_grid,
    exact_distribution,
    fourier_coeff_fr,
    fourier_transform,
    fr_function,
    hyperconc_moment,
    hyperconc_tail,
    is_rainbow,
    kappa_function,
    linf_distance,
    lattice_inversion,
    mainchf_bound,
    rainbow_cliques,
    sample_kappa,
)
from cliquellt.bounds import berry_esseen_ln
from cliquellt.cliques import counts_over_all_graphs
from cliquellt.decoupling import flatten
from cliquellt.pbf import assignment_weights


def report(num, name, ok, started):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{name}]: {status} ({time.time() - started:.1f}s)")
    return ok


def bisection_partition(n):
    half = n // 2 + n % 2
    return build_color_partition(n, 1, [half, n - half])


def test_criterion_01_moment_equivalence():
    started = time.time()
    ok = True
    cases = [(n, 3) for n in range(4, 8)] + [(6, 4)]
    for n, r in cases:
        counts = counts_over_all_graphs(n, r)
        m = n * (n - 1) // 2
        for p in (0.3, 0.5, 0.7):
            spec = CliqueSpec(n=n, r=r, p=p)
            w = assignment_weights(m, p)
            mu_enum = float(np.sum(w * counts))
            var_enum = float(np.sum(w * counts.astype(np.float64) ** 2)) - mu_enum**2
            ok &= abs(spec.mu - mu_enum) < 1e-9
            ok &= abs(spec.sigma2 - var_enum) < 1e-9
    elapsed = time.time() - started
    ok &= elapsed < 120.0
    assert report(1, "moment formulas vs enumeration", ok, started)


def test_criterion_02_fourier_profile():
    started = time.time()
    ok = True
    for n, r, p in ((3, 3, 0.5), (4, 3, 0.3), (4, 3, 0.5), (5, 3, 0.5), (5, 4, 0.4)):
        spec = CliqueSpec(n=n, r=r, p=p)
        ground = spec.ground
        table = np.array(
            [count_cliques(GraphAssignment(ground, b), r) for b in range(1 << ground.size)],
            dtype=np.float64,
        )
        f = fourier_transform(table, ground, p)
        for size in range(ground.size + 1):
            for S in itertools.combinations(range(ground.size), size):
                if abs(fourier_coeff_fr(spec, S) - f.coeff(S)) >= 1e-10:
                    ok = False
    assert report(2, "closed-form coefficients vs transform", ok, started)


def test_criterion_03_llt_trend():
    started = time.time()
    scaled = []
    for n in (5, 6, 7):
        spec = CliqueSpec(n=n, r=3, p=0.5)
        dist = exact_distribution(spec)
        gauss = discrete_gaussian(LatticeSpec(0.0, 1.0), spec.mu, spec.sigma)
        scaled.append(spec.sigma * linf_distance(dist, gauss))
    ok = scaled[0] > scaled[1] > scaled[2]
    elapsed = time.time() - started
    ok &= elapsed < 300.0
    print(f"  sigma*linf at n=5,6,7: {scaled[0]:.6f}, {scaled[1]:.6f}, {scaled[2]:.6f}")
    assert report(3, "sigma*linf strictly decreasing", ok, started)


def test_criterion_04_inversion_round_trip():
    started = time.time()
    spec = CliqueSpec(n=4, r=3, p=0.5)
    dist = exact_distribution(spec)
    hint = max(abs(x) for x in dist.mass)
    ok = True
    for x, mass in dist.mass.items():
        got = lattice_inversion(dist.chf, dist.lattice, x, freq_hint=hint)
        ok &= abs(got - mass) < 1e-8
    assert report(4, "lattice inversion round-trip", ok, started)


def test_criterion_05_alpha_algebra():
    started = time.time()
    rng = np.random.default_rng(2024)
    ok = True

    # exhaustive single-key and pairwise identities, n <= 5, k <= 2
    for n, k in ((4, 1), (4, 2), (5, 1), (5, 2)):
        part = bisection_partition(n) if k == 1 else _two_block_partition(n)
        ground = part.ground
        m = ground.size
        p = 0.35
        keys = [
            frozenset(S) for size in range(m + 1) for S in itertools.combinations(range(m), size)
        ]
        alphas = {}
        for S in keys:
            a = alpha_transform(PBFunction.chi(ground, p, S), part)
            alphas[S] = a
            if S and is_rainbow(S, part):
                ok &= abs(a.norm2() ** 2 - 2.0**k) < 1e-10
            else:
                ok &= a.coeffs == {} or not S
        if n == 4:  # exhaustive pairwise orthogonality
            for S in keys:
                for T in keys:
                    inner = sum(
                        c * alphas[T].coeffs.get(K, 0.0) for K, c in alphas[S].coeffs.items()
                    )
                    want = 2.0**k if (S == T and S and is_rainbow(S, part)) else 0.0
                    ok &= abs(inner - want) < 1e-10
        # pointwise operator matches the coefficient-level transform
        f = _random_function(ground, p, rng)
        af = alpha_transform(f, part)
        for _ in range(20):
            x_bits = {e: int(rng.random() < p) for e in part.block(0)}
            y_bits = {
                e: (int(rng.random() < p), int(rng.random() < p))
                for e in range(m)
                if part.block_of[e] != 0
            }
            direct = alpha_pointwise(f, part, x_bits, y_bits)
            bits = 0
            for e in range(m):
                if part.block_of[e] == 0:
                    if x_bits[e]:
                        bits |= 1 << (2 * e)
                else:
                    if y_bits[e][0]:
                        bits |= 1 << (2 * e)
                    if y_bits[e][1]:
                        bits |= 1 << (2 * e + 1)
            ok &= abs(af.eval(bits) - direct) < 1e-10

    # support condition for all rainbow pairs at n=4, k=1
    part = bisection_partition(4)
    p = 0.3
    m = part.ground.size
    rainbow_keys = [
        frozenset(S)
        for size in range(1, m + 1)
        for S in itertools.combinations(range(m), size)
        if is_rainbow(S, part)
    ]
    for S in rainbow_keys:
        for T in rainbow_keys:
            prod = alpha_product_transform(S, T, part, p)
            for U in prod.coeffs:
                fl = flatten(U)
                ok &= (S ^ T) <= fl <= (S | T)
    assert report(5, "alpha operator algebra", ok, started)


def _two_block_partition(n):
    third = max(n // 3, 1)
    return build_color_partition(n, 2, [n - 2 * third, third, third])


def _random_function(ground, p, rng, max_degree=3, density=0.2):
    coeffs = {}
    for size in range(max_degree + 1):
        for S in itertools.combinations(range(ground.size), size):
            if rng.random() < density:
                coeffs[frozenset(S)] = rng.normal()
    return PBFunction(ground, p, coeffs)


def test_criterion_06_decoupling_inequality():
    started = time.time()
    spec = CliqueSpec(n=5, r=3, p=0.5)
    f = fr_function(spec)
    part = bisection_partition(5)
    mc = MCConfig(seed=606, samples=10_000, workers=2)
    ok = True
    for chk in decoupling_check(f.table(), part, f.p, (0.5, 1.0, 2.0), mc):
        ok &= chk.lhs <= chk.rhs + 3.0 * chk.rhs_stderr
    elapsed = time.time() - started
    ok &= elapsed < 60.0
    assert report(6, "decoupling inequality", ok, started)


def test_criterion_07_degree_collapse():
    started = time.time()
    rng = np.random.default_rng(707)
    ok = True
    for n, r in ((6, 3), (7, 4)):
        spec = CliqueSpec(n=n, r=r, p=0.5)
        kap = kappa_function(spec)
        k = r - 2
        sizes = [n - k * (n // (k + 1))] + [n // (k + 1)] * k
        part = build_color_partition(n, k, sizes)
        akap = alpha_transform(kap, part)
        for _ in range(100):
            y_bits = {
                e: (int(rng.random() < 0.5), int(rng.random() < 0.5))
                for e in range(part.ground.size)
                if part.block_of[e] != 0
            }
            g = alpha_restricted_coeffs(akap, y_bits)
            ok &= all(len(S) <= 1 for S in g.coeffs)
    assert report(7, "k=r-2 degree collapse", ok, started)


def test_criterion_08_rainbow_clique_structure():
    started = time.time()
    ok = True
    for n, r in ((6, 3), (10, 3), (8, 4)):
        part = build_clique_partition(n, r)
        expected = [tuple(range(c * r + 1, (c + 1) * r + 1)) for c in range(n // r)]
        ok &= rainbow_cliques(part, r) == expected
    assert report(8, "rainbow cliques = partition cliques", ok, started)


def test_criterion_09_bound_suites():
    started = time.time()
    ok = True

    # Bernoulli chf bounds on 100-point grids
    for p in (0.2, 0.5, 0.8):
        caps = {"Y": math.pi / 2, "x": math.pi, "chi": math.sqrt(p * (1 - p)) * math.pi}
        for variant, cap in caps.items():
            for t in np.linspace(0.0, cap * 0.9999, 100):
                t = float(t)
                ok &= bernoulli_chf_exact(t, p, variant) <= bernoulli_chf_bound(t, p, variant) + 1e-12

    # Berry-Esseen gap grids
    for n in (20, 50):
        for p in (0.3, 0.5):
            cap = 1.0 / (4.0 * berry_esseen_ln(n, p))
            for t in np.linspace(1e-3, cap, 60):
                bound, gap = berry_esseen_gap(n, p, float(t))
                ok &= gap <= bound + 1e-12

    # hypercontractive tail vs MC at 3 SE
    rng = np.random.default_rng(909)
    lam = 0.5
    hp = HypParams(d=1, lam=lam)
    t = (2.0 * math.e / lam) ** 0.5 + 0.05
    draws = (rng.random((100_000, 30)) < 0.5) * 2.0 - 1.0
    f_vals = draws.sum(axis=1) / math.sqrt(30)
    emp = float(np.mean(np.abs(f_vals) >= t))
    se = math.sqrt(max(emp * (1 - emp), 1e-12) / 100_000)
    ok &= emp <= hyperconc_tail(hp, 1.0, t) + 3 * se

    # hypercontractive moment vs enumeration
    ground = EdgeGround(5)
    for p in (0.2, 0.5):
        f = _random_function(ground, p, rng, max_degree=2, density=0.1)
        if f.degree() < 2:
            f = f + PBFunction.chi(ground, p, [0, 1])
        w = assignment_weights(ground.size, p)
        vals = np.array([f.eval(b) for b in range(1 << ground.size)])
        exact4 = float(np.sum(w * vals**4))
        ok &= exact4 <= hyperconc_moment(HypParams(d=2, lam=min(p, 1 - p)), f.norm2(), 2.0) + 1e-12

    # mainchf bound vs enumeration
    for p in (0.4, 0.5):
        spec = CliqueSpec(n=5, r=3, p=p)
        fr = fr_function(spec)
        kap = (1.0 / spec.sigma) * (fr - fr.degree_slice(0))
        x_part, y_part = kap.degree_slice(1), kap.tail(1)
        w = assignment_weights(spec.ground.size, p)
        xv = np.array([x_part.eval(b) for b in range(1 << spec.ground.size)])
        zv = xv + np.array([y_part.eval(b) for b in range(1 << spec.ground.size)])
        for t in (0.5, 1.0):
            gap = abs(np.sum(w * np.exp(1j * t * zv)) - np.sum(w * np.exp(1j * t * xv)))
            bp = BoundParams(
                ell=2,
                d=y_part.degree(),
                t=t,
                T=x_part.variance(),
                delta=max(c * c for c in x_part.coeffs.values()),
                eta=y_part.norm2(),
                spectral1=y_part.spectral_norm1(),
                lam=min(p, 1 - p),
            )
            ok &= float(gap) <= mainchf_bound(bp) + 1e-12
    assert report(9, "bound suites dominate oracles", ok, started)


def test_criterion_10_chf_regime_probe():
    started = time.time()
    spec = CliqueSpec(n=30, r=3, p=0.5)
    mc = MCConfig(seed=1010, samples=300_000, workers=4)
    kap = sample_kappa(spec, mc)

    est1 = empirical_chf_grid(kap, [1.0])[0]
    ok = abs(abs(est1.value) - math.exp(-0.5)) <= 0.05 + 3.0 * est1.stderr

    t_mid = 30.0**0.6
    est2 = empirical_chf_grid(kap, [t_mid])[0]
    ok &= abs(est2.value) <= 0.01 + 3.0 * est2.stderr

    elapsed = time.time() - started
    ok &= elapsed < 300.0
    print(
        f"  |chf(1)|={abs(est1.value):.4f} (target e^-0.5={math.exp(-0.5):.4f}),"
        f" |chf(n^0.6)|={abs(est2.value):.4f}"
    )
    assert report(10, "chf regime probe at n=30", ok, started)


def test_criterion_11_determinism():
    started = time.time()
    ok = True

    spec = CliqueSpec(n=30, r=3, p=0.5)
    mc = MCConfig(seed=1111, samples=20_000, workers=4)
    a = sample_kappa(spec, mc)
    b = sample_kappa(spec, mc)
    ok &= np.array_equal(a, b)

    spec5 = CliqueSpec(n=5, r=3, p=0.5)
    f = fr_function(spec5)
    part = bisection_partition(5)
    mc2 = MCConfig(seed=42, samples=2_000, workers=3)
    [c1] = decoupling_check(f.table(), part, f.p, (1.0,), mc2)
    [c2] = decoupling_check(f.table(), part, f.p, (1.0,), mc2)
    ok &= c1.rhs == c2.rhs and c1.rhs_stderr == c2.rhs_stderr and c1.lhs == c2.lhs
    assert report(11, "bit-identical MC reproducibility", ok, started)
