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
    independent streams need no jumping or shared state.  ``derive``
    produces a child stream whose id is a 64-bit hash of (stream_id,
    index); collisions are negligible at the stream counts used here.
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

    def ppf(self, u):
        """Inverse of the cdf ((x - lower)/(upper - lower))^(exponent+1)."""
        return self.lower + (self.upper - self.lower) * u ** (1.0 / (self.exponent + 1.0))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        n = self.exponent
        width = self.upper - self.lower
        inside = (x >= self.lower) & (x <= self.upper)
        return np.where(
            inside, (n + 1.0) / width ** (n + 1.0) * (x - self.lower) ** n, 0.0
        )


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


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Observed samples, kept sorted, drawn from with equal weights."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.sort(np.asarray(self.samples, dtype=float))
        if arr.size == 0:
            raise ValueError("need at least one sample")
        object.__setattr__(self, "samples", arr)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _t1_lower_tail(y: np.ndarray) -> np.ndarray:
    """F(-y) at 1 degree of freedom: atan(1/y)/pi."""
    np.divide(1.0, y, out=y)
    np.arctan(y, out=y)
    y /= math.pi
    return y


# F(-y) at 3 degrees of freedom is (phi - sin(phi) cos(phi))/pi with
# phi = atan(sqrt(3)/y), which cancels for small phi.  Its Taylor series,
# phi^3 * sum_k b_k phi^(2k-2) with b_k = (-1)^(k+1) 4^k / (pi (2k+1)!),
# has terms shrinking like 1/(2k+1)!, and 13 of them reach double
# precision for every phi up to pi/2 (y = 0).
_T3_SERIES = tuple(
    (-1) ** (k + 1) * 4.0**k / (math.pi * math.factorial(2 * k + 1))
    for k in range(1, 14)
)


def _t3_lower_tail(y: np.ndarray) -> np.ndarray:
    """F(-y) at 3 degrees of freedom, by the series in phi (Horner in
    phi^2; phi is taken back as sqrt(phi^2), so two arrays suffice)."""
    np.divide(math.sqrt(3.0), y, out=y)
    np.arctan(y, out=y)
    v = y * y
    np.multiply(v, _T3_SERIES[-1], out=y)
    for b in reversed(_T3_SERIES[1:-1]):
        y += b
        y *= v
    y += _T3_SERIES[0]
    y *= v
    np.sqrt(v, out=v)
    y *= v
    return y


def _t4_lower_tail(y: np.ndarray) -> np.ndarray:
    """F(-y) at 4 degrees of freedom: (1 - s(1 + c/2))/2 with
    s = y/sqrt(4 + y^2) and c = 4/(4 + y^2), written as
    h^2 e (1 + e) with h = c/2 and e = 1/(1 + s).  s is taken as
    1/sqrt(1 + 4/y^2), so a y^2 past the float range gives s = 1, h = 0
    and a tail of exactly 0, never inf/inf."""
    y *= y
    e = np.divide(4.0, y)
    e += 1.0
    np.sqrt(e, out=e)
    np.divide(1.0, e, out=e)
    e += 1.0
    np.divide(1.0, e, out=e)
    y += 4.0
    np.divide(2.0, y, out=y)
    y *= y
    y *= e
    e += 1.0
    y *= e
    return y


# Closed forms of the lower tail (Abramowitz & Stegun 26.7.3-4), by dof.
# Each takes |x| as a fresh flat array, overwrites it with the tail and
# allocates at most one more array of its size (none at dof 1).  Every
# tail is +0.0 or above (or NaN), which student_t_cdf's sign flip
# |[x > 0] - L| needs to give back L itself where x <= 0.
_T_LOWER_TAILS = {
    1.0: _t1_lower_tail,
    3.0: _t3_lower_tail,
    4.0: _t4_lower_tail,
}


def _t_cdf_betainc(x: np.ndarray, dof: float) -> np.ndarray:
    """Student t CDF at any dof through one ``betainc`` call.

    Where x^2 >= dof, F(-|x|) = I_{dof/(dof+x^2)}(dof/2, 1/2) / 2.  Closer
    to 0 that argument rounds toward 1 and loses the distance from 1/2, so
    there F = 1/2 + sign(x) I_{x^2/(dof+x^2)}(1/2, dof/2) / 2 instead; both
    branches share the call through array-valued ``a`` and ``b``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x * x
        near = x2 < dof
        z = np.where(near, x2, dof)
        x2 += dof
        z /= x2
        del x2  # freed before a and b: three arrays of x's size at most
        a = np.where(near, 0.5, 0.5 * dof)
        b = np.where(near, 0.5 * dof, 0.5)
        half = betainc(a, b, z, out=z)
        del a, b
        half *= 0.5
        above = x > 0
        np.negative(half, out=half, where=near ^ above)
        np.add(half, 0.5, out=half, where=near)
        np.add(half, 1.0, out=half, where=above & ~near)
    return half


def student_t_cdf(x, dof: float):
    """CDF of the Student t distribution with ``dof`` degrees of freedom.

    At dof 1, 3 and 4 (``int`` or ``float``) a closed form gives the
    lower tail L = F(-|x|) without cancellation, to within a few units in
    the last place; F is L for x <= 0 and 1 - L above.  Every other dof
    goes through the regularized incomplete beta function.  Vectorizes
    over ``x``; scalar in, scalar out.
    """
    if not (dof > 0 and math.isfinite(dof)):
        raise ValueError(f"degrees of freedom must be positive, got {dof}")
    x_arr = np.asarray(x, dtype=float)
    lower_tail = _T_LOWER_TAILS.get(float(dof))
    if lower_tail is None:
        out = _t_cdf_betainc(x_arr.reshape(-1), dof).reshape(x_arr.shape)
    else:
        # |x| in a fresh C-ordered array, so that its flat view, in which
        # the tail is computed in place, shares the output's memory; the
        # view is 1-d even for a scalar, so every ufunc returns an array
        y = np.absolute(x_arr, out=np.empty(x_arr.shape))
        with np.errstate(divide="ignore", over="ignore"):
            out = lower_tail(y.reshape(-1)).reshape(x_arr.shape)
        # 1 - L above 0 and |0 - L| = L elsewhere, bit for bit, without
        # numpy's masked ``where=`` loop, which costs more than the tail
        np.subtract(x_arr > 0, out, out=out)
        np.absolute(out, out=out)
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
