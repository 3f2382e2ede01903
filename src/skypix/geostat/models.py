"""Parametric covariance families on the sphere and variogram fitting.

Every family is written as ``cov(h) = sigmasq * rho(h)`` with ``rho(0) = 1``
and ``|rho| <= 1`` on geodesic lags ``h in [0, pi]`` for parameters inside
the family domain; a nugget adds ``tausq`` at lag zero only.  Most families
evaluate ``rho`` at the scaled lag ``t = h / psi``; two are angle-native:
``sinepower`` uses the raw lag (``1 - sin(h/2)**kappa``) and
``multiquadric`` reinterprets ``psi`` as its shape ``delta`` in (0, 1).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from ..errors import DomainError, ParameterError
from ..rng import numpy_generator

# family -> (uses kappa, default kappa, validity check)
_KAPPA_RULES = {
    "matern": (True, 0.5, lambda k: k > 0),
    "exponential": (False, None, None),
    "spherical": (False, None, None),
    "powered.exponential": (True, 1.0, lambda k: 0 < k <= 2),
    "cauchy": (True, 1.0, lambda k: k > 0),
    "gencauchy": (True, 1.0, lambda k: k > 0),
    "pure.nugget": (False, None, None),
    "askey": (True, 2.0, lambda k: k >= 2),
    "c2wendland": (True, 4.0, lambda k: k >= 4),
    "c4wendland": (True, 6.0, lambda k: k >= 6),
    "sinepower": (True, 1.0, lambda k: 0 < k <= 2),
    "multiquadric": (True, 0.5, lambda k: k > 0),
}

FAMILIES = tuple(_KAPPA_RULES)


@dataclass(frozen=True)
class CovarianceModel:
    family: str
    sigmasq: float
    psi: float
    kappa: float | None = None
    kappa2: float | None = None
    nugget: float = 0.0

    def __post_init__(self):
        if self.family not in _KAPPA_RULES:
            raise ParameterError("unknown family %r (choose from %s)"
                                 % (self.family, ", ".join(FAMILIES)))
        uses_kappa, default, check = _KAPPA_RULES[self.family]
        if uses_kappa and self.kappa is None:
            object.__setattr__(self, "kappa", default)
        if self.sigmasq < 0:
            raise ParameterError("sigmasq must be >= 0")
        if self.nugget < 0:
            raise ParameterError("nugget must be >= 0")
        if not self.psi > 0:
            raise ParameterError("psi must be > 0")
        if self.family == "multiquadric" and not self.psi < 1:
            raise ParameterError("multiquadric needs psi (its shape) in (0, 1)")
        if uses_kappa and not check(self.kappa):
            raise ParameterError("kappa=%r outside the %s domain"
                                 % (self.kappa, self.family))
        if self.family == "gencauchy":
            k2 = 1.0 if self.kappa2 is None else self.kappa2
            if not 0 < k2 <= 2:
                raise ParameterError("gencauchy needs kappa2 in (0, 2]")
            object.__setattr__(self, "kappa2", k2)


def _matern_rho(t, kappa):
    out = np.ones_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = (2.0 ** (1.0 - kappa) / special.gamma(kappa)
                * tp ** kappa * special.kv(kappa, tp))
    return np.nan_to_num(out, nan=0.0)


def correlation(model, h):
    """rho(h) for geodesic lags ``h`` (radians), vectorized."""
    h = np.asarray(h, dtype=np.float64)
    fam = model.family
    k = model.kappa
    if fam == "sinepower":
        return 1.0 - np.abs(np.sin(0.5 * h)) ** k
    if fam == "multiquadric":
        delta = model.psi
        return ((1 - delta) ** 2 / (1 + delta ** 2 - 2 * delta * np.cos(h))) ** k
    t = h / model.psi
    if fam == "matern":
        return _matern_rho(t, k)
    if fam == "exponential":
        return np.exp(-t)
    if fam == "spherical":
        return np.where(t < 1, 1 - 1.5 * t + 0.5 * t ** 3, 0.0)
    if fam == "powered.exponential":
        return np.exp(-(t ** k))
    if fam == "cauchy":
        return (1 + t ** 2) ** (-k)
    if fam == "gencauchy":
        return (1 + t ** model.kappa2) ** (-k / model.kappa2)
    if fam == "pure.nugget":
        return np.where(t == 0, 1.0, 0.0)
    compact = np.maximum(0.0, 1.0 - t)
    if fam == "askey":
        return compact ** k
    if fam == "c2wendland":
        return (1 + k * t) * compact ** k
    if fam == "c4wendland":
        return (1 + k * t + (k * k - 1) / 3.0 * t ** 2) * compact ** k
    raise ParameterError("unknown family %r" % fam)


def cov_model(h, model):
    """Covariance at geodesic lag ``h``: sigmasq * rho(h), plus the nugget
    exactly at lag zero."""
    h = np.asarray(h, dtype=np.float64)
    if np.any((h < 0) | (h > math.pi)):
        raise DomainError("lags must be in [0, pi]")
    out = model.sigmasq * correlation(model, h)
    if model.nugget:
        out = out + np.where(h == 0, model.nugget, 0.0)
    return out if out.ndim else float(out)


def variogram_model(h, model):
    """Semivariogram: cov(0) - cov(h) = sigmasq*(1 - rho(h)) + nugget off 0."""
    h = np.asarray(h, dtype=np.float64)
    out = model.sigmasq * (1.0 - correlation(model, h))
    out = out + np.where(h > 0, model.nugget, 0.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# least-squares fitting to an empirical variogram

@dataclass
class VariogramFit:
    model: CovarianceModel
    objective: float
    converged: bool
    iterations: int
    weights: str

    def to_dict(self):
        m = self.model
        return {"family": m.family, "sigmasq": m.sigmasq, "psi": m.psi,
                "kappa": m.kappa, "kappa2": m.kappa2, "nugget": m.nugget,
                "objective": self.objective, "converged": self.converged,
                "iterations": self.iterations, "weights": self.weights}


def _weight_vector(kind, counts, gamma_model):
    if kind == "equal":
        return np.ones_like(gamma_model)
    if kind == "npairs":
        return counts
    if kind == "cressie":
        safe = np.maximum(gamma_model, 1e-300)
        return counts / safe ** 2
    raise DomainError("weights must be 'equal', 'npairs' or 'cressie'")


def fit_variogram(curve, family, weights="equal", fix_nugget=True, seed=0):
    """Fit a parametric variogram to an empirical curve by weighted least
    squares over (sigmasq, psi[, kappa][, nugget]).

    The optimizer is a derivative-free simplex in log-parameter space.  It
    starts from the largest value as sigmasq, the largest lag as psi (0.5
    for multiquadric's shape), the family's default kappa and a tenth of
    sigmasq as a free nugget, adds three seeded restarts and polishes the
    best.  ``kappa2`` (gencauchy)
    stays fixed at 1.  Returns a :class:`VariogramFit`; non-convergence is
    flagged, with the best parameters so far.
    """
    uses_kappa, kappa0, _ = _KAPPA_RULES[family]
    mask = (np.asarray(curve.counts) > 0) & (np.asarray(curve.lags) > 0)
    lags = np.asarray(curve.lags, dtype=np.float64)[mask]
    values = np.asarray(curve.values, dtype=np.float64)[mask]
    counts = np.asarray(curve.counts, dtype=np.float64)[mask]

    free = 2 + int(uses_kappa) + int(not fix_nugget)
    if lags.size < free:
        raise DomainError("curve has %d usable bins; %d parameters to fit"
                          % (lags.size, free))
    # multiquadric's psi is its shape, in (0, 1)
    if np.all(values == 0):
        psi = 0.5 if family == "multiquadric" else 1.0
        return VariogramFit(CovarianceModel(family, 0.0, psi), 0.0, True, 0,
                            weights)

    sigma0 = float(np.max(values))
    psi0 = 0.5 if family == "multiquadric" else float(lags.max())
    scale = max(sigma0, 1e-12)

    # log parameters keep the simplex inside the positive domain
    start = [math.log(max(sigma0, 1e-12 * scale)), math.log(psi0)]
    if uses_kappa:
        start.append(math.log(kappa0))
    if not fix_nugget:
        start.append(math.log(max(0.1 * sigma0, 1e-9 * scale)))

    def model_at(u):
        sigmasq, psi, *rest = map(math.exp, u)
        kappa = rest[0] if uses_kappa else None
        nugget = 0.0 if fix_nugget else rest[-1]
        return CovarianceModel(family, sigmasq, psi, kappa, 1.0, nugget)

    def objective(u):
        try:
            model = model_at(u)
        except (OverflowError, ParameterError):
            # outside the family domain, or a parameter the curve does not
            # pin down drifted off the float range (sinepower ignores psi)
            return 1e30
        gm = variogram_model(lags, model)
        w = _weight_vector(weights, counts, gm)
        return float(np.sum(w * (values - gm) ** 2))

    rng = numpy_generator(seed)
    starts = [np.array(start)]
    for _ in range(3):
        starts.append(starts[0] + rng.normal(scale=0.4, size=len(starts[0])))

    best = None
    total_iters = 0
    for u0 in starts:
        res = optimize.minimize(
            objective, u0, method="Nelder-Mead",
            options={"maxiter": 10000, "xatol": 1e-12, "fatol": 1e-14,
                     "adaptive": True})
        total_iters += res.nit
        if best is None or res.fun < best.fun:
            best = res
    # polish from the champion
    res = optimize.minimize(
        objective, best.x, method="Nelder-Mead",
        options={"maxiter": 10000, "xatol": 1e-13, "fatol": 1e-15,
                 "adaptive": True})
    total_iters += res.nit
    if res.fun <= best.fun:
        best = res

    return VariogramFit(model_at(best.x), float(best.fun), bool(best.success),
                        total_iters, weights)
