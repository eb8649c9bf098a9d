"""Integer radius laws: survival functions, samplers, and tail functionals.

Every law is described by its survival function G(j) = P(radius >= j) on
the nonnegative integers, with G(0) = 1.  The families are closed-form so
that the tail functionals liminf/limsup of j*G(j) and the moment flags are
exact rather than estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Radii above this bound are indistinguishable inside any addressable
# window; clamping here keeps float->int64 casts safe for tiny uniforms.
RADIUS_CAP = 2**62

_INF = float("inf")


class TruncatedLawError(ValueError):
    """Tail functionals are undefined for truncated laws (liminf is trivially 0)."""


class DistParseError(ValueError):
    """Malformed distribution spec string; carries the offending token."""

    def __init__(self, token: str, reason: str):
        self.token = token
        super().__init__(f"bad distribution spec token {token!r}: {reason}")


@dataclass(frozen=True)
class TailFunctionals:
    """liminf and limsup of j * P(radius >= j), possibly +inf."""

    liminf_jg: float
    limsup_jg: float


@dataclass(frozen=True)
class TailDistribution:
    """Base class for the radius-law families."""

    def survival(self, j: int) -> float:
        """G(j) = P(radius >= j)."""
        raise NotImplementedError

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        """Vectorized survival over an int array."""
        raise NotImplementedError

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Largest j with G(j) > u, for u in (0, 1].

        This is the inverse transform on the integer survival function:
        the result j satisfies G(j+1) <= u < G(j), so P(result >= j) = G(j).
        """
        raise NotImplementedError

    def functionals(self) -> TailFunctionals:
        raise NotImplementedError

    def moment_finite(self, d: int) -> bool:
        """Whether E[radius^d] is finite."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ParetoTail(TailDistribution):
    """G(j) = min(1, alpha/j) for j >= 1.  Infinite mean for every alpha."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def survival(self, j: int) -> float:
        if j <= 0:
            return 1.0
        return min(1.0, self.alpha / j)

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        j = np.asarray(j, dtype=np.float64)
        with np.errstate(divide="ignore"):
            g = np.minimum(1.0, self.alpha / j)
        return np.where(j <= 0, 1.0, g)

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        q = np.minimum(np.ceil(self.alpha / u) - 1.0, RADIUS_CAP)
        return np.maximum(q, 0.0).astype(np.int64)

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(self.alpha, self.alpha)

    def moment_finite(self, d: int) -> bool:
        # sum j^(d-1) * alpha/j diverges for every d >= 1
        return False

    def spec_string(self) -> str:
        return f"pareto:alpha={self.alpha:g}"


@dataclass(frozen=True)
class PowerTail(TailDistribution):
    """G(j) = j^(-beta) for j >= 1."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def survival(self, j: int) -> float:
        if j <= 0:
            return 1.0
        return min(1.0, j ** (-self.beta))

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        j = np.asarray(j, dtype=np.float64)
        # clip before the power: j <= 0 is masked below, and a negative base
        # to a fractional power would be NaN
        g = np.minimum(1.0, np.maximum(j, 1.0) ** (-self.beta))
        return np.where(j <= 0, 1.0, g)

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        q = np.minimum(np.ceil(u ** (-1.0 / self.beta)) - 1.0, RADIUS_CAP)
        return np.maximum(q, 0.0).astype(np.int64)

    def functionals(self) -> TailFunctionals:
        if self.beta < 1:
            return TailFunctionals(_INF, _INF)
        if self.beta == 1:
            return TailFunctionals(1.0, 1.0)
        return TailFunctionals(0.0, 0.0)

    def moment_finite(self, d: int) -> bool:
        return self.beta > d

    def spec_string(self) -> str:
        return f"power:beta={self.beta:g}"


@dataclass(frozen=True)
class Geometric(TailDistribution):
    """G(j) = q^j; P(radius = j) = q^j (1-q)."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {self.q}")

    def survival(self, j: int) -> float:
        if j <= 0:
            return 1.0
        return self.q**j

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        j = np.asarray(j, dtype=np.float64)
        # q ** j overflows for very negative j, which is masked anyway
        return np.where(j <= 0, 1.0, self.q ** np.maximum(j, 0.0))

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        q = np.ceil(np.log(u) / math.log(self.q)) - 1.0
        return np.maximum(q, 0.0).astype(np.int64)

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(0.0, 0.0)

    def moment_finite(self, d: int) -> bool:
        return True

    def spec_string(self) -> str:
        return f"geom:q={self.q:g}"


@dataclass(frozen=True)
class Constant(TailDistribution):
    """Degenerate law: radius = r always."""

    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"r must be nonnegative, got {self.r}")

    def survival(self, j: int) -> float:
        return 1.0 if j <= self.r else 0.0

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        j = np.asarray(j, dtype=np.float64)
        return np.where(j <= self.r, 1.0, 0.0)

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u), self.r, dtype=np.int64)

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(0.0, 0.0)

    def moment_finite(self, d: int) -> bool:
        return True

    def spec_string(self) -> str:
        return f"const:r={self.r}"


@dataclass(frozen=True)
class Truncated(TailDistribution):
    """min(base draw, cap): G(j) = base.G(j) for j <= cap, 0 above.

    Exists for enumeration oracles and window clamping; its tail
    functionals are rejected because the truncation masks the base law.
    """

    base: TailDistribution
    cap: int

    def __post_init__(self):
        if self.cap < 0:
            raise ValueError(f"cap must be nonnegative, got {self.cap}")

    def survival(self, j: int) -> float:
        if j > self.cap:
            return 0.0
        return self.base.survival(j)

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        j = np.asarray(j, dtype=np.float64)
        return np.where(j > self.cap, 0.0, self.base.survival_vec(j))

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.minimum(self.base.quantile_from_uniform(u), self.cap)

    def functionals(self) -> TailFunctionals:
        raise TruncatedLawError(
            "tail functionals of a truncated law are trivially (0, 0) and hide "
            "the base law; query the base distribution instead"
        )

    def moment_finite(self, d: int) -> bool:
        return True

    def spec_string(self) -> str:
        return f"trunc:{self.base.spec_string()}:cap={self.cap}"


def tail(dist: TailDistribution, j: int) -> float:
    """Survival probability G(j) = P(radius >= j)."""
    return dist.survival(j)


def survival_complement(dist: TailDistribution, p: float, j: int) -> float:
    """Probability 1 - p*G(j) that a candidate source at displacement j misses."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    return 1.0 - p * dist.survival(j)


def sample_radius(dist: TailDistribution, rng: np.random.Generator) -> int:
    """One radius draw by inverse transform; advances the stream by one uniform."""
    u = 1.0 - rng.random()  # (0, 1]
    return int(dist.quantile_from_uniform(np.array([u]))[0])


def sample_radii(dist: TailDistribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized radius draws; consumes exactly `size` uniforms."""
    u = 1.0 - rng.random(size)
    return dist.quantile_from_uniform(u)


def tail_functionals(dist: TailDistribution) -> TailFunctionals:
    """Closed-form liminf/limsup of j*G(j); rejects truncated laws."""
    return dist.functionals()


def moment_finite(dist: TailDistribution, d: int) -> bool:
    """Whether the d-th moment of the radius is finite (d >= 1)."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return dist.moment_finite(d)


def _parse_kv(token: str, key: str, spec: str) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise DistParseError(token, f"expected '{key}=<value>' in {spec!r}")
    return token[len(prefix):]


def _parse_float(token: str, key: str, spec: str) -> float:
    raw = _parse_kv(token, key, spec)
    try:
        return float(raw)
    except ValueError:
        raise DistParseError(token, f"{key} is not a number") from None


def _parse_int(token: str, key: str, spec: str) -> int:
    raw = _parse_kv(token, key, spec)
    try:
        return int(raw)
    except ValueError:
        raise DistParseError(token, f"{key} is not an integer") from None


def parse_distribution(spec: str) -> TailDistribution:
    """Parse a spec string.

    Grammar (case-sensitive):
      pareto:alpha=<float> | power:beta=<float> | geom:q=<float>
      | const:r=<int> | trunc:<spec>:cap=<int>
    """
    if spec.startswith("trunc:"):
        rest = spec[len("trunc:"):]
        sep = rest.rfind(":cap=")
        if sep < 0:
            raise DistParseError(spec, "truncated law needs a ':cap=<int>' suffix")
        base = parse_distribution(rest[:sep])
        cap = _parse_int(rest[sep + 1:], "cap", spec)
        try:
            return Truncated(base, cap)
        except ValueError as e:
            raise DistParseError(rest[sep + 1:], str(e)) from None

    head, _, rest = spec.partition(":")
    try:
        if head == "pareto":
            return ParetoTail(_parse_float(rest, "alpha", spec))
        if head == "power":
            return PowerTail(_parse_float(rest, "beta", spec))
        if head == "geom":
            return Geometric(_parse_float(rest, "q", spec))
        if head == "const":
            return Constant(_parse_int(rest, "r", spec))
    except DistParseError:
        raise
    except ValueError as e:
        raise DistParseError(rest, str(e)) from None
    raise DistParseError(head, "unknown family (want pareto|power|geom|const|trunc)")
