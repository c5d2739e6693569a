"""Literal evaluators for the explicit-constant inequalities: Bernoulli chf
decay, a Berry-Esseen chf gap, hypercontractive tail/moment bounds, and the
Taylor-split characteristic-function comparison bound."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import DomainError
from .ground import binom


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie in (0,1), got {p}")


def _chi_values(p: float) -> tuple[float, float]:
    """chi_e at x_e = 1 and at x_e = 0; finite for every p in (0, 1), where (1-p)/p can overflow."""
    return math.sqrt(1.0 - p) / math.sqrt(p), -math.sqrt(p) / math.sqrt(1.0 - p)


# -- Bernoulli characteristic functions ---------------------------------------

BERNOULLI_VARIANTS = ("Y", "x", "chi")


def bernoulli_chf_bound(t: float, p: float, variant: str = "chi") -> float:
    """Upper bound on |E e^{itV}| for a single Bernoulli-type variable V.

    variant "Y": V = +-1 with P(1)=p, valid |t| < pi/2, bound 1 - 8p(1-p)t^2/pi^2.
    variant "x": V = x_e in {0,1},   valid |t| < pi,   bound 1 - 2p(1-p)t^2/pi^2.
    variant "chi": V = chi_e,        valid |t| < sqrt(p(1-p))*pi, bound 1 - 2t^2/pi^2.

    The "x" and "chi" coefficients follow from the "Y" case via x_e = (Y+1)/2,
    which substitutes t/2 into the +-1 bound.
    """
    _check_p(p)
    a = abs(t)
    if variant == "Y":
        if not a < math.pi / 2:
            raise DomainError(f"|t| must be < pi/2 for the +-1 variant, got {t}")
        return 1.0 - 8.0 * p * (1.0 - p) * t * t / math.pi**2
    if variant == "x":
        if not a < math.pi:
            raise DomainError(f"|t| must be < pi for the indicator variant, got {t}")
        return 1.0 - 2.0 * p * (1.0 - p) * t * t / math.pi**2
    if variant == "chi":
        if not a < math.sqrt(p * (1.0 - p)) * math.pi:
            raise DomainError(f"|t| must be < sqrt(p(1-p))*pi for the chi variant, got {t}")
        return 1.0 - 2.0 * t * t / math.pi**2
    raise DomainError(f"unknown variant {variant!r}, expected one of {BERNOULLI_VARIANTS}")


def bernoulli_chf_exact(t: float, p: float, variant: str = "chi") -> float:
    """|E e^{itV}| in closed form, for oracle comparisons."""
    _check_p(p)
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t}")
    if variant == "Y":
        return abs(p * cmath.exp(1j * t) + (1.0 - p) * cmath.exp(-1j * t))
    if variant == "x":
        return abs(p * cmath.exp(1j * t) + (1.0 - p))
    if variant == "chi":
        hi, lo = _chi_values(p)
        for chi in (hi, lo):  # |lo| > hi when p > 1/2
            if math.isinf(t * chi):
                raise DomainError(f"t * chi = {t} * {chi:.6g} is past the float range")
        return abs(p * cmath.exp(1j * t * hi) + (1.0 - p) * cmath.exp(1j * t * lo))
    raise DomainError(f"unknown variant {variant!r}, expected one of {BERNOULLI_VARIANTS}")


# -- Berry-Esseen chf gap -------------------------------------------------------


def berry_esseen_ln(n: int, p: float) -> float:
    """L_n = (p^2 + (1-p)^2) / sqrt(C(n,2) p (1-p))."""
    _check_p(p)
    m = binom(n, 2)
    if m < 1:
        raise DomainError(f"need n >= 2, got {n}")
    return (p * p + (1.0 - p) ** 2) / math.sqrt(m * p * (1.0 - p))


def berry_esseen_gap(n: int, p: float, t: float) -> tuple[float, float]:
    """(bound, exact gap) for the normalized edge-count chf vs the Gaussian chf.

    X = sum over edges of chi_e / sqrt(C(n,2)); for |t| <= 1/(4 L_n) the gap
    |E e^{itX} - e^{-t^2/2}| is at most 16 L_n |t|^3 e^{-t^2/3}.
    """
    ln = berry_esseen_ln(n, p)
    if not abs(t) <= 1.0 / (4.0 * ln):
        raise DomainError(f"|t| must be <= 1/(4 L_n) = {1.0 / (4.0 * ln):.6g}, got {t}")
    bound = 16.0 * ln * abs(t) ** 3 * math.exp(-t * t / 3.0)
    m = binom(n, 2)
    s = t / math.sqrt(m)
    hi, lo = _chi_values(p)
    # In log space, without cancellation: E e^{is chi_e} = 1 + z, using
    # e^{ix} - 1 = 2i sin(x/2) e^{ix/2}, and E e^{itX} = (1 + z)^m = e^{-t^2/2} e^w.
    z = sum(2j * q * math.sin(s * x / 2.0) * cmath.exp(0.5j * s * x) for q, x in ((p, hi), (1.0 - p, lo)))
    log1p = complex(0.5 * math.log1p(2.0 * z.real + abs(z) ** 2), math.atan2(z.imag, 1.0 + z.real))
    w = m * log1p + t * t / 2.0
    # |e^a - e^b| = e^max(a, b) |e^{-|a - b|} - 1| for real parts, and conjugation keeps |.|
    u, v = -abs(w.real), w.imag
    expm1 = complex(math.expm1(u) * math.cos(v) - 2.0 * math.sin(v / 2.0) ** 2, math.exp(u) * math.sin(v))
    return bound, math.exp(max(w.real, 0.0) - t * t / 2.0) * abs(expm1)


# -- hypercontractivity ----------------------------------------------------------


@dataclass(frozen=True)
class HypParams:
    """Degree d and lambda = min(p, 1-p) for the hypercontractive bounds."""

    d: int
    lam: float

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"degree must be >= 1, got {self.d}")
        if not (0.0 < self.lam <= 0.5):
            raise DomainError(f"lambda must lie in (0, 1/2], got {self.lam}")


def hyperconc_tail(hp: HypParams, norm2: float, t: float) -> float:
    """Bound on Pr[|f| >= t * norm2] for degree-<=d f: lambda^d exp(-(d/2e) lambda t^{2/d}).

    Valid for t >= (2e/lambda)^{d/2}.  (The prefactor is read as lambda^d.)
    """
    if not norm2 >= 0:
        raise DomainError(f"norm2 must be nonnegative, got {norm2}")
    try:
        floor = (2.0 * math.e / hp.lam) ** (hp.d / 2.0)
    except OverflowError:  # a floor past the float range: no float t reaches it
        floor = math.inf
    if not t >= floor:
        raise DomainError(f"tail bound needs t >= (2e/lambda)^(d/2) = {floor:.6g}, got {t}")
    try:
        decay = (hp.d / (2.0 * math.e)) * hp.lam * t ** (2.0 / hp.d)
    except OverflowError:  # t^{2/d} past the float range: the bound is e^{-inf} = 0
        return 0.0
    return hp.lam**hp.d * math.exp(-decay)


def hyperconc_moment(hp: HypParams, norm2: float, q: float) -> float:
    """Bound on E[|f|^{2q}] for degree-<=d f: (2q-1)^{dq} lambda^{d(1-q)} norm2^{2q}.

    At q=1 this reduces to exactly E[f^2]; the lambda exponent d(1-q) is forced
    by Jensen (E|f|^{2q} >= norm2^{2q} for q >= 1).  Where norm2^{2q}
    underflows (p near 1e-100) the product is taken in log space.  Returns inf
    when a factor passes the float range.
    """
    if not q >= 1:
        raise DomainError(f"moment order q must be >= 1, got {q}")
    if not norm2 >= 0:
        raise DomainError(f"norm2 must be nonnegative, got {norm2}")
    try:
        growth = (2.0 * q - 1.0) ** (hp.d * q) * hp.lam ** (hp.d * (1.0 - q))
        # inf * 0.0 would be nan; inf is still an upper bound
        bound = growth * norm2 ** (2.0 * q) if growth < math.inf else math.inf
    except OverflowError:
        return math.inf
    if norm2 > 0.0 and bound < sys.float_info.min:
        # norm2^{2q} underflowed, so the bound is below about growth * 2^-1022 < 4: no overflow
        log_growth = hp.d * q * math.log(2.0 * q - 1.0) + hp.d * (1.0 - q) * math.log(hp.lam)
        return math.exp(log_growth + 2.0 * q * math.log(norm2))
    return bound


# -- main characteristic-function comparison bound --------------------------------


@dataclass(frozen=True)
class BoundParams:
    """Inputs for mainchf_bound.

    X = sum a_i chi_i with T = sum a_i^2 and delta = max a_i^2; Y is a degree-d
    polynomial with no degree-<=1 monomials, eta = ||Y||_2 and spectral1 its
    spectral 1-norm.  epsilon is derived, never supplied.
    """

    ell: int
    d: int
    t: float
    T: float
    delta: float
    eta: float
    spectral1: float
    lam: float

    def __post_init__(self):
        if self.ell < 1:
            raise DomainError("Taylor order ell must be >= 1")
        if self.d < 1:
            raise DomainError("degree d must be >= 1")
        for name in ("T", "delta", "eta", "spectral1"):
            if not getattr(self, name) >= 0:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not (0.0 < self.lam <= 0.5):
            raise DomainError(f"lambda must lie in (0, 1/2], got {self.lam}")

    @property
    def epsilon(self) -> float:
        return math.exp(-2.0 * self.t**2 * (self.T - self.delta * self.d * self.ell) / math.pi**2)

    @property
    def t_limit(self) -> float:
        """mainchf_bound needs |t| below this: min(sqrt(lam(1-lam)) pi delta^{-1/2}, (2e)^{l/2} lam^{-l/2} / eta)."""
        lam, ell, eta = self.lam, self.ell, self.eta
        lim1 = math.sqrt(lam * (1.0 - lam)) * math.pi / math.sqrt(self.delta) if self.delta > 0 else math.inf
        try:
            lim2 = (2.0 * math.e) ** (ell / 2.0) * lam ** (-ell / 2.0) / eta if eta > 0 else math.inf
        except OverflowError:
            lim2 = math.inf
        return min(lim1, lim2)

    @property
    def cp(self) -> float:
        # |1-2p| = 1-2*lambda and p(1-p) = lambda(1-lambda) for lambda = min(p,1-p)
        lam = self.lam
        return (1.0 + (1.0 - 2.0 * lam) / math.sqrt(lam * (1.0 - lam))) * math.sqrt(
            (1.0 - lam) / lam
        )


def mainchf_bound(bp: BoundParams) -> float:
    """The four-term bound on |phi_{X+Y}(t) - phi_X(t)|.

    Follows the proof's first term, which carries the extra C_p^d factor on the
    spectral 1-norm; validity requires |t| < bp.t_limit.  The caller is
    responsible for Y having no degree-<=1 monomials.  Returns inf when a term
    passes the float range, as it can for large ell.
    """
    lam, ell, d, t, eta = bp.lam, bp.ell, bp.d, abs(bp.t), bp.eta
    if not t < bp.t_limit:
        raise DomainError(f"|t|={t:.6g} outside validity range < {bp.t_limit:.6g}")
    try:
        eps = bp.epsilon
        total = ell * eps * (1.0 + (t * bp.cp**d * bp.spectral1) ** ell)
        teta = t * eta
        if teta > 0.0:  # limit conventions: the Taylor and tail terms vanish with eta or t
            term2 = (
                teta ** (ell + 1)
                / math.factorial(ell + 1)
                * ell ** (d * (ell + 1) / 2.0)
                * lam ** (d * (1.0 - ell) / 2.0)
            )
            decay = (d * lam / (2.0 * math.e)) * teta ** (-2.0 / d)
            term3 = lam**d * math.exp(-decay)
            term4 = teta ** ((ell + 1) / 2.0) * lam ** ((3.0 * d - ell) / 4.0) * (ell + 1) * math.exp(
                -decay / 2.0
            )
            total = total + term2 + term3 + term4  # left to right, as the bound reads
    except OverflowError:  # a term past the float range: inf still bounds the gap
        return math.inf
    # nan comes from inf * 0 (t = 0 with C_p^d = inf at a subnormal lam, say); the
    # exact terms are finite and nonnegative, so inf bounds them
    return math.inf if math.isnan(total) else total
