"""Radius laws: survival functions, samplers, tail functionals and the spec parser.

Every lattice law is described by its survival function G(j) = P(radius >= j)
on the nonnegative integers, with G(0) = 1.  The families are closed-form so
that the tail functionals liminf/limsup of j*G(j) and the moment flags are
exact rather than estimated.  The continuum counterparts (ParetoCont,
PowerCont, ConstCont) are given by P(rho > x) on the reals; one table maps
each spec family to its lattice and continuum class.
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

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        """G(j) = P(radius >= j) over an int array: the law's one survival function.

        Powers are np.float_power, which is libm pow, the function Python's
        float ** calls, so each entry equals the scalar formula bit for bit.
        """
        raise NotImplementedError

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Largest j with G(j) > u, for u in (0, 1].

        This is the inverse transform on the integer survival function:
        the result j satisfies G(j+1) <= u < G(j), so P(result >= j) = G(j).
        """
        raise NotImplementedError

    # E[radius^d] is finite exactly for d < moment_bound
    moment_bound = _INF

    def functionals(self) -> TailFunctionals:
        raise NotImplementedError

    def moment_finite(self, d: int) -> bool:
        """Whether E[radius^d] is finite (d >= 1)."""
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return d < self.moment_bound

    def spec_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class ParetoTail(TailDistribution):
    """G(j) = min(1, alpha/j) for j >= 1.  Infinite mean for every alpha."""

    alpha: float
    # sum j^(d-1) * alpha/j diverges for every d >= 1
    moment_bound = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):  # alpha / 0 = inf: G(j) = 1 for j <= 0
            return np.minimum(1.0, self.alpha / np.maximum(j, 0.0))

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf is the right tail; it clips to the cap
            q = np.minimum(np.ceil(self.alpha / u) - 1.0, RADIUS_CAP)
        # at alpha >= 1, G(1) = 1: every radius is at least 1, even where
        # alpha / u rounds to 1
        return np.maximum(q, 1.0 if self.alpha >= 1 else 0.0).astype(np.int64)

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(self.alpha, self.alpha)

    def spec_string(self) -> str:
        return f"pareto:alpha={self.alpha:g}"


@dataclass(frozen=True)
class PowerTail(TailDistribution):
    """G(j) = j^(-beta) for j >= 1."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        # 1^(-beta) = 1 for j <= 0, where a negative base to a fractional
        # power would be NaN
        return np.float_power(np.maximum(j, 1.0), -self.beta)

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf is the right tail; it clips to the cap
            q = np.minimum(np.ceil(u ** (-1.0 / self.beta)) - 1.0, RADIUS_CAP)
        # G(1) = 1: every radius is at least 1, even where a huge beta
        # rounds u^(-1/beta) to 1
        return np.maximum(q, 1.0).astype(np.int64)

    def functionals(self) -> TailFunctionals:
        if self.beta < 1:
            return TailFunctionals(_INF, _INF)
        if self.beta == 1:
            return TailFunctionals(1.0, 1.0)
        return TailFunctionals(0.0, 0.0)

    @property
    def moment_bound(self) -> float:
        return self.beta

    def spec_string(self) -> str:
        return f"power:beta={self.beta:g}"


@dataclass(frozen=True)
class Geometric(TailDistribution):
    """G(j) = q^j; P(radius = j) = q^j (1-q)."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {self.q}")

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        # q^0 = 1 for j <= 0, where q^j would overflow
        return np.float_power(self.q, np.maximum(j, 0.0))

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        q = np.ceil(np.log(u) / math.log(self.q)) - 1.0
        return np.maximum(q, 0.0).astype(np.int64)

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(0.0, 0.0)

    def spec_string(self) -> str:
        return f"geom:q={self.q:g}"


@dataclass(frozen=True)
class Constant(TailDistribution):
    """Degenerate law: radius = r always."""

    r: int

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"r must be nonnegative, got {self.r}")

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(j) <= self.r, 1.0, 0.0)

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u), self.r, dtype=np.int64)

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(0.0, 0.0)

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

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(j) > self.cap, 0.0, self.base.survival_vec(j))

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.minimum(self.base.quantile_from_uniform(u), self.cap)

    def functionals(self) -> TailFunctionals:
        raise TruncatedLawError(
            "tail functionals of a truncated law are trivially (0, 0) and hide "
            "the base law; query the base distribution instead"
        )

    def spec_string(self) -> str:
        return f"trunc:{self.base.spec_string()}:cap={self.cap}"


@dataclass(frozen=True)
class ParetoCont:
    """Continuum law P(rho > x) = min(1, alpha/x)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    def survival(self, x: float) -> float:
        if x <= self.alpha:
            return 1.0
        return self.alpha / x

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """rho with P(rho > quantile(u)) = u; u in (0, 1], inf past the float range."""
        with np.errstate(over="ignore"):
            return self.alpha / u

    def spec_string(self) -> str:
        return f"pareto:alpha={self.alpha:g}"


@dataclass(frozen=True)
class PowerCont:
    """Continuum law P(rho > x) = min(1, x^(-beta))."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    def survival(self, x: float) -> float:
        if x <= 1.0:
            return 1.0
        return x ** (-self.beta)

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf past the float range
            return u ** (-1.0 / self.beta)

    def spec_string(self) -> str:
        return f"power:beta={self.beta:g}"


@dataclass(frozen=True)
class ConstCont:
    """Continuum law rho = r always: P(rho > x) = 1 for x < r, else 0."""

    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"r must be nonnegative, got {self.r}")

    def survival(self, x: float) -> float:
        return 1.0 if x < self.r else 0.0

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u), float(self.r))

    def spec_string(self) -> str:
        return f"const:r={self.r:g}"


# family -> (parameter key, (lattice class, parameter type),
#            (continuum class, parameter type) or None)
_LAWS = {
    "pareto": ("alpha", (ParetoTail, float), (ParetoCont, float)),
    "power": ("beta", (PowerTail, float), (PowerCont, float)),
    "geom": ("q", (Geometric, float), None),
    "const": ("r", (Constant, int), (ConstCont, float)),
}


def _parse_value(token: str, key: str, kind: type, spec: str):
    prefix = key + "="
    if not token.startswith(prefix):
        raise DistParseError(token, f"expected '{key}=<value>' in {spec!r}")
    try:
        return kind(token[len(prefix):])
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise DistParseError(token, f"{key} is not {what}") from None


def parse_distribution(spec: str, continuous: bool = False):
    """Parse a spec string into a lattice law, or a continuum law if `continuous`.

    Grammar (case-sensitive):
      pareto:alpha=<float> | power:beta=<float> | geom:q=<float>
      | const:r=<int> | trunc:<spec>:cap=<int>
    The continuum takes pareto, power and const, with a float r.
    """
    if spec.startswith("trunc:") and not continuous:
        rest = spec[len("trunc:"):]
        sep = rest.rfind(":cap=")
        if sep < 0:
            raise DistParseError(spec, "truncated law needs a ':cap=<int>' suffix")
        base = parse_distribution(rest[:sep])
        cap = _parse_value(rest[sep + 1:], "cap", int, spec)
        try:
            return Truncated(base, cap)
        except ValueError as e:
            raise DistParseError(rest[sep + 1:], str(e)) from None

    column = 2 if continuous else 1
    head, _, rest = spec.partition(":")
    form = _LAWS[head][column] if head in _LAWS else None
    if form is None:
        want = [family for family, law in _LAWS.items() if law[column]]
        want += [] if continuous else ["trunc"]
        label = "continuous family" if continuous else "family"
        raise DistParseError(head, f"unknown {label} (want {'|'.join(want)})")
    key, (cls, kind) = _LAWS[head][0], form
    value = _parse_value(rest, key, kind, spec)
    try:
        return cls(value)
    except ValueError as e:
        raise DistParseError(rest, str(e)) from None
