"""Seeded sampling and the distribution primitives shared by all engines.

Every stochastic routine in the package draws from an :class:`RngStream`,
a counter-based (seed, stream_id) handle on top of numpy's Philox
generator.  Equal (seed, stream_id, call order) always reproduces the
same draws, and distinct stream ids from one seed give statistically
independent sequences, so simulations stay bit-reproducible no matter
how work is scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, ndtr

__all__ = [
    "RngStream",
    "InverseGammaParams",
    "PowerPricePrior",
    "CategoricalPMF",
    "EmpiricalDistribution",
    "student_t_cdf",
    "normal_cdf",
    "sample_inverse_gamma",
    "sample_power_prior",
    "sample_categorical",
    "ecdf",
    "ecdf_eval",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(v: int) -> int:
    """SplitMix64 finalizer; avalanches all 64 bits of ``v``."""
    z = (v + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass
class RngStream:
    """A named, splittable randomness source.

    The pair (seed, stream_id) keys a Philox counter-based generator, so
    streams can be handed to parallel tasks without any jumping or shared
    state.  ``derive`` produces a child stream whose id is a 64-bit hash
    of (stream_id, index); collisions are negligible at the stream counts
    used here.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 <= int(self.seed) <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if not 0 <= int(self.stream_id) <= _MASK64:
            raise ValueError("stream_id must fit in 64 unsigned bits")

    @property
    def generator(self) -> np.random.Generator:
        """The stateful numpy generator backing this stream (created lazily)."""
        if self._gen is None:
            key = np.array([self.seed, self.stream_id], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def derive(self, index: int) -> "RngStream":
        """A fresh, independent child stream for task ``index``."""
        child = _mix64((self.stream_id ^ _mix64(index + 1)) & _MASK64)
        return RngStream(self.seed, child)


# ---------------------------------------------------------------------------
# distribution parameter types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InverseGammaParams:
    """Shape/scale parameters of an inverse-gamma prior on a variance."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive, got {self.scale}")

    def mean(self) -> float:
        """Analytic mean scale/(shape-1); infinite for shape <= 1."""
        return self.scale / (self.shape - 1.0) if self.shape > 1 else math.inf


@dataclass(frozen=True)
class PowerPricePrior:
    """Belief over a rival's view of a price: density ~ (p - lower)^exponent.

    Supported on [lower, upper].  exponent = 0 is uniform; larger exponents
    concentrate mass near ``upper`` (prices expected close to the current
    list price).
    """

    lower: float
    upper: float
    exponent: float = 0.0

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(
                f"lower must be < upper, got [{self.lower}, {self.upper}]"
            )
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        u = np.clip((x - self.lower) / (self.upper - self.lower), 0.0, 1.0)
        return u ** (self.exponent + 1.0)

    def ppf(self, u):
        """Inverse of :meth:`cdf`: lower + (upper - lower) * u^(1/(exponent+1))."""
        return self.lower + (self.upper - self.lower) * u ** (1.0 / (self.exponent + 1.0))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        n = self.exponent
        width = self.upper - self.lower
        inside = (x >= self.lower) & (x <= self.upper)
        return np.where(
            inside, (n + 1.0) / width ** (n + 1.0) * (x - self.lower) ** n, 0.0
        )

    def mean(self) -> float:
        n = self.exponent
        return self.lower + (self.upper - self.lower) * (n + 1.0) / (n + 2.0)


@dataclass(frozen=True)
class CategoricalPMF:
    """Finite pmf over an ascending list of rates/prices."""

    values: tuple
    probs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be equal-length and nonempty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("values must be strictly ascending")
        if any(p < 0 for p in self.probs):
            raise ValueError("probs must be nonnegative")
        if abs(math.fsum(self.probs) - 1.0) > 1e-9:
            raise ValueError(f"probs sum to {math.fsum(self.probs)!r}, not 1")

    def prob_below(self, x: float) -> float:
        """P(V < x), strict; the closed-form building block for win odds."""
        mass = math.fsum(p for v, p in zip(self.values, self.probs) if v < x)
        return min(max(mass, 0.0), 1.0)

    def cdf(self, x: float) -> float:
        """P(V <= x)."""
        mass = math.fsum(p for v, p in zip(self.values, self.probs) if v <= x)
        return min(max(mass, 0.0), 1.0)


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Step CDF built from observed samples (right-continuous, 0 to 1)."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.sort(np.asarray(self.samples, dtype=float))
        if arr.size == 0:
            raise ValueError("need at least one sample")
        object.__setattr__(self, "samples", arr)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self.samples, x, side="right") / self.samples.size


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def student_t_cdf(x, dof: float):
    """CDF of the Student t distribution with ``dof`` degrees of freedom.

    Evaluated through the regularized incomplete beta function
    I_{dof/(dof+x^2)}(dof/2, 1/2), which is exact to machine precision and
    vectorizes over ``x``.  Scalar in, scalar out.
    """
    if not (dof > 0 and math.isfinite(dof)):
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    x_arr = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        ib = betainc(dof / 2.0, 0.5, dof / (dof + x_arr * x_arr))
    ib = np.where(np.isinf(x_arr), 0.0, ib)
    out = np.where(x_arr <= 0, 0.5 * ib, 1.0 - 0.5 * ib)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def normal_cdf(x):
    """Standard normal CDF, vectorized."""
    out = ndtr(np.asarray(x, dtype=float))
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def sample_inverse_gamma(params: InverseGammaParams, rng: RngStream, size=None):
    """Draw from an inverse-gamma: the reciprocal of a gamma variate.

    A gamma draw with shape ``params.shape`` and scale ``1/params.scale``
    is inverted, so the result has density proportional to
    x^(-shape-1) exp(-scale/x) and mean scale/(shape-1).
    """
    g = rng.generator.gamma(params.shape, 1.0 / params.scale, size=size)
    return 1.0 / g


def sample_power_prior(prior: PowerPricePrior, rng: RngStream, size=None):
    """Inverse-transform draw: ``prior.ppf`` of uniforms."""
    return prior.ppf(rng.generator.random(size))


def sample_categorical(pmf: CategoricalPMF, rng: RngStream, size=None):
    """Draw values from a finite pmf."""
    idx = rng.generator.choice(len(pmf.values), size=size, p=pmf.probs)
    values = np.asarray(pmf.values)
    return values[idx]


def ecdf(samples) -> EmpiricalDistribution:
    """Empirical distribution of a sample batch."""
    return EmpiricalDistribution(np.asarray(samples, dtype=float))


def ecdf_eval(dist: EmpiricalDistribution, x):
    """Evaluate an empirical CDF at ``x`` (fraction of samples <= x)."""
    out = dist.cdf(x)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out
