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
from numpy.polynomial import polynomial as P

from ..errors import DomainError, ParameterError
from ..rng import numpy_generator

_ANY = (0.0, math.inf)
# family -> (uses kappa, default kappa, kappa range): a used kappa is > 0
# and within the closed range
_KAPPA_RULES = {
    "matern": (True, 0.5, _ANY),
    "exponential": (False, None, None),
    "spherical": (False, None, None),
    "powered.exponential": (True, 1.0, (0.0, 2.0)),
    "cauchy": (True, 1.0, _ANY),
    "gencauchy": (True, 1.0, _ANY),
    "pure.nugget": (False, None, None),
    "askey": (True, 2.0, (2.0, math.inf)),
    "c2wendland": (True, 4.0, (4.0, math.inf)),
    "c4wendland": (True, 6.0, (6.0, math.inf)),
    "sinepower": (True, 1.0, (0.0, 2.0)),
    "multiquadric": (True, 0.5, _ANY),
}

FAMILIES = tuple(_KAPPA_RULES)


def _kappa_rule(family):
    if family not in _KAPPA_RULES:
        raise ParameterError("unknown family %r (choose from %s)"
                             % (family, ", ".join(FAMILIES)))
    return _KAPPA_RULES[family]


@dataclass(frozen=True)
class CovarianceModel:
    family: str
    sigmasq: float
    psi: float
    kappa: float | None = None
    kappa2: float | None = None
    nugget: float = 0.0

    def __post_init__(self):
        uses_kappa, default, kappa_range = _kappa_rule(self.family)
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
        if uses_kappa and not (0 < self.kappa and kappa_range[0]
                               <= self.kappa <= kappa_range[1]):
            raise ParameterError("kappa=%r outside the %s domain"
                                 % (self.kappa, self.family))
        if self.family == "gencauchy":
            k2 = 1.0 if self.kappa2 is None else self.kappa2
            if not 0 < k2 <= 2:
                raise ParameterError("gencauchy needs kappa2 in (0, 2]")
            object.__setattr__(self, "kappa2", k2)


def _debye_polynomials(count):
    """``u_0 .. u_{count-1}`` of the uniform asymptotic expansion of
    ``K_nu`` (DLMF 10.41.10), as coefficient arrays in ``p``."""
    u = [np.array([1.0])]
    for _ in range(count - 1):
        u.append(P.polyadd(
            P.polymul([0.0, 0.0, 0.5, 0.0, -0.5], P.polyder(u[-1])),
            P.polyint(P.polymul([1.0, 0.0, -5.0], u[-1])) / 8))
    return u


# from this kappa on, matern uses the expansion: twelve terms are exact to
# ~3e-17 there, while tp**kappa and kv overflow at lags that matter
_DEBYE_KAPPA = 30.0
_DEBYE_U = _debye_polynomials(12)
# Stirling's series for log Gamma(nu) - (nu - 1/2) log nu + nu - log(2 pi)/2
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _matern_rho(t, kappa):
    out = np.ones_like(t)
    pos = t > 0
    tp = t[pos]
    if kappa >= _DEBYE_KAPPA:
        out[pos] = _matern_debye(tp, kappa)
        return out
    from scipy import special
    with np.errstate(all="ignore"):
        rho = (2.0 ** (1.0 - kappa) / special.gamma(kappa)
               * tp ** kappa * special.kv(kappa, tp))
        # an overflow or inf*0 in the product: redo those in logs; below
        # _DEBYE_KAPPA kv overflows only where rho is 1.0 in float
        bad = ~np.isfinite(rho)
        kv = special.kv(kappa, tp[bad])
        rho[bad] = np.where(np.isinf(kv), 1.0, np.exp(
            (1.0 - kappa) * math.log(2.0) - special.gammaln(kappa)
            + kappa * np.log(tp[bad]) + np.log(kv)))
    out[pos] = rho
    return out


def _matern_debye(t, nu):
    """Matern rho for large ``nu`` from ``K_nu(nu z)``'s uniform expansion
    (DLMF 10.41.4), with the Gamma and power terms cancelled by hand so
    that nothing overflows: log rho = nu (log1p(d/2) - d) - log(w)/2
    + log S - Stirling(nu), where z = t/nu, w = sqrt(1 + z^2), d = w - 1."""
    z = t / nu
    w = np.hypot(1.0, z)
    d = z * (z / (1.0 + w))
    s = np.zeros_like(t)
    for u in reversed(_DEBYE_U):
        s = s * (-1.0 / nu) + P.polyval(1.0 / w, u)
    stirling = sum(c / nu ** (2 * k + 1) for k, c in enumerate(_STIRLING))
    return np.minimum(1.0, np.exp(nu * (np.log1p(0.5 * d) - d) - stirling
                                  - 0.5 * np.log(w) + np.log(s)))


def _pow1p(x, k):
    """``(1 + x)**k`` as ``exp(k*log1p(x))``, which keeps its precision
    where a huge ``k`` meets an ``x`` near zero (the kappa -> inf ridges)."""
    return np.exp(k * np.log1p(x))


def _rho(fam, h, psi, k, k2):
    """rho of family ``fam`` at lags ``h`` for scalar parameters; the one
    copy of the formulas, shared by :func:`correlation` and the fit."""
    if fam == "sinepower":
        return 1.0 - np.abs(np.sin(0.5 * h)) ** k
    if fam == "multiquadric":
        delta = psi
        return ((1 - delta) ** 2 / (1 + delta ** 2 - 2 * delta * np.cos(h))) ** k
    t = h / psi
    if fam == "matern":
        return _matern_rho(t, k)
    if fam == "exponential":
        return np.exp(-t)
    if fam == "spherical":
        return np.where(t < 1, 1 - 1.5 * t + 0.5 * t ** 3, 0.0)
    if fam == "powered.exponential":
        return np.exp(-(t ** k))
    if fam == "cauchy":
        return _pow1p(t ** 2, -k)
    if fam == "gencauchy":
        return _pow1p(t ** k2, -k / k2)
    if fam == "pure.nugget":
        return np.where(t == 0, 1.0, 0.0)
    if fam == "askey":
        return np.maximum(0.0, 1.0 - t) ** k
    # (1 - t)**k on t < 1, masked so that log1p never sees -1
    inside = t < 1
    compact = np.where(inside, _pow1p(-np.where(inside, t, 0.0), k), 0.0)
    if fam == "c2wendland":
        return (1 + k * t) * compact
    if fam == "c4wendland":
        return (1 + k * t + (k * k - 1) / 3.0 * t ** 2) * compact
    raise ParameterError("unknown family %r" % fam)


def correlation(model, h):
    """rho(h) for geodesic lags ``h`` (radians), vectorized."""
    return _rho(model.family, np.asarray(h, dtype=np.float64), model.psi,
                model.kappa, model.kappa2)


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


_WEIGHTS = ("equal", "npairs", "cressie")
# half-width of the log-parameter box around the first start: wide enough
# for the kappa -> inf ridges (gencauchy, c4wendland), narrow enough that
# every parameter stays a finite float
_LOG_BOX = 40.0
# the residual where gamma leaves it non-finite or absurd (cressie's
# values/gamma at gamma = 0, say): above any other, yet small enough that
# the TRF Jacobian and the squared sum stay finite
_WALL = 1e30


def _log_box(family, start):
    """Bounds on the log parameters, for TRF and the polish alike: the box
    around ``start``, cut by the family's kappa range and multiquadric's
    shape psi <= 1 (the fit keeps that psi below 1)."""
    lower = np.asarray(start) - _LOG_BOX
    upper = np.asarray(start) + _LOG_BOX
    if family == "multiquadric":
        upper[1] = 0.0
    uses_kappa, _, kappa_range = _KAPPA_RULES[family]
    if uses_kappa:
        lo, hi = kappa_range
        if lo > 0:
            lower[2] = math.log(lo)
        if hi < math.inf:
            upper[2] = math.log(hi)
    return lower, upper


def fit_variogram(curve, family, weights="equal", fix_nugget=True, seed=0):
    """Fit a parametric variogram to an empirical curve by weighted least
    squares over (sigmasq, psi[, kappa][, nugget]), in log-parameter space.

    The residuals are ``sqrt(w) * (values - gamma)`` with ``w`` 1
    (``equal``) or the pair counts (``npairs``); ``cressie`` uses
    ``sqrt(counts) * (values / gamma - 1)``.  Counts are scaled to mean 1
    inside the fit, so the optimizers' tolerances are relative;
    ``objective`` is the weighted sum of squares on the original scale.
    Four starts -- the largest value as sigmasq, the largest lag as psi
    (0.5 for multiquadric's shape), the family's default kappa and a tenth
    of sigmasq as a free nugget, plus three seeded perturbations of it --
    run bounded trust-region-reflective least squares; a Nelder-Mead
    simplex then polishes the best end.  ``kappa2`` (gencauchy) stays
    fixed at 1.  ``converged`` is the polish's; ``iterations`` counts the
    residual evaluations of the four TRF runs plus the polish's simplex
    iterations.
    """
    from scipy import optimize
    uses_kappa, kappa0, _ = _kappa_rule(family)
    if weights not in _WEIGHTS:
        raise DomainError("weights must be 'equal', 'npairs' or 'cressie'")
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
    start = [math.log(max(sigma0, 1e-12 * scale)), math.log(psi0)]
    if uses_kappa:
        start.append(math.log(kappa0))
    if not fix_nugget:
        start.append(math.log(max(0.1 * sigma0, 1e-9 * scale)))

    count_scale = 1.0 if weights == "equal" else counts.mean()
    sqrt_w = 1.0 if weights == "equal" else np.sqrt(counts / count_scale)

    def params(u):
        """(sigmasq, psi, kappa, kappa2, nugget) of log parameters ``u``."""
        sigmasq, psi, *rest = np.exp(u).tolist()
        if family == "multiquadric":
            # exp() of a log psi within ~6e-17 of the box's edge 0 rounds
            # to 1.0, outside the shape's domain (0, 1)
            psi = min(psi, math.nextafter(1.0, 0.0))
        kappa = rest[0] if uses_kappa else None
        return sigmasq, psi, kappa, 1.0, 0.0 if fix_nugget else rest[-1]

    def residual(u):
        sigmasq, psi, kappa, kappa2, nugget = params(u)
        # overflow, 0/0 and inf*0 leave non-finite (or absurd) residuals;
        # _WALL there steers both optimizers away
        gm = sigmasq * (1.0 - _rho(family, lags, psi, kappa, kappa2))
        gm += nugget
        if weights == "cressie":
            r = sqrt_w * (values / gm - 1.0)
        else:
            r = sqrt_w * (values - gm)
        return np.where(np.abs(r) < _WALL, r, _WALL)

    def objective(u):
        # the polish keeps to the box that bounds TRF
        if (u < lower).any() or (u > upper).any():
            return math.inf
        r = residual(u)
        return float(r @ r)

    lower, upper = _log_box(family, start)
    rng = numpy_generator(seed)
    starts = [np.array(start)]
    for _ in range(3):
        starts.append(starts[0] + rng.normal(scale=0.4, size=len(starts[0])))

    best = None
    iterations = 0
    # params and residual run only in here; one errstate for all their
    # calls costs less than one per call
    with np.errstate(all="ignore"):
        for u0 in starts:
            res = optimize.least_squares(
                residual, np.clip(u0, lower, upper), bounds=(lower, upper),
                method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
            iterations += res.nfev
            if best is None or res.cost < best.cost:
                best = res
        # the simplex keeps its start as a vertex, so it never ends above
        # the TRF end it starts from
        res = optimize.minimize(
            objective, best.x, method="Nelder-Mead",
            options={"maxiter": 10000, "xatol": 1e-13, "fatol": 1e-15,
                     "adaptive": True})
        iterations += res.nit
        return VariogramFit(CovarianceModel(family, *params(res.x)),
                            float(res.fun * count_scale), bool(res.success),
                            iterations, weights)
