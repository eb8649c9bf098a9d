"""Radius laws: survival functions, samplers, tail functionals and the spec parser.

Every lattice law is described by its survival function G(j) = P(radius >= j)
on the nonnegative integers, with G(0) = 1.  The families are closed-form so
that the tail functionals liminf/limsup of j*G(j) and the moment flags are
exact rather than estimated.  One class per family also gives its continuum
law, the radius rho of the Poisson Boolean model: real_quantile draws rho,
with P(rho > x) the family's formula for G at real x, and the lattice radius
is ceil(rho) - 1, so P(radius >= j) = P(rho > j) = G(j).  Only a constant
radius r is r itself on the lattice.  One table maps each spec family to its
class and to its lattice and continuum parameter types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Radii above this bound are indistinguishable inside any addressable
# window; clamping here keeps float->int64 casts safe for tiny uniforms.
RADIUS_CAP = 2**62

_INF = float("inf")


def _number(x: int | float) -> str:
    """The shortest spec text that parses back to x: an int as it is, a float as
    its repr (the shortest digits that round-trip) without a trailing '.0'."""
    return str(x) if isinstance(x, int) else repr(float(x)).removesuffix(".0")


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

    def real_quantile(self, u: np.ndarray) -> np.ndarray:
        """The real radius rho of u in (0, 1], by inverting P(rho > x) = u; inf
        past the float range.  Returns a new array, which the caller may reuse."""
        raise NotImplementedError

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Largest j with G(j) > u, for u in (0, 1].

        This is the inverse transform on the integer survival function:
        the result j satisfies G(j+1) <= u < G(j), so P(result >= j) = G(j).
        It is ceil(rho) - 1 of the real radius, clipped to RADIUS_CAP (where
        rho is inf) and, where G(1) = 1, raised to 1 (where rho rounds to 1).
        """
        # in place on real_quantile's new array: one float64 temporary
        q = self.real_quantile(u)
        np.ceil(q, out=q)
        q -= 1.0
        np.minimum(q, RADIUS_CAP, out=q)
        np.maximum(q, 1.0 if self.survival_vec(1.0) == 1 else 0.0, out=q)
        return q.astype(np.int64)

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

    def real_quantile(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf is the right tail
            return self.alpha / u

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(self.alpha, self.alpha)

    def spec_string(self) -> str:
        return f"pareto:alpha={_number(self.alpha)}"


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

    def real_quantile(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf is the right tail
            return u ** (-1.0 / self.beta)

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
        return f"power:beta={_number(self.beta)}"


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

    def real_quantile(self, u: np.ndarray) -> np.ndarray:
        return np.log(u) / math.log(self.q)

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(0.0, 0.0)

    def spec_string(self) -> str:
        return f"geom:q={_number(self.q)}"


@dataclass(frozen=True)
class Constant(TailDistribution):
    """Degenerate law: radius = r always, an int on the lattice, a float in the continuum."""

    r: int | float

    def __post_init__(self):
        if not self.r >= 0:  # NaN fails it too
            raise ValueError(f"r must be nonnegative, got {self.r}")

    def survival_vec(self, j: np.ndarray) -> np.ndarray:
        return np.where(np.asarray(j) <= self.r, 1.0, 0.0)

    def real_quantile(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.shape(u), float(self.r))

    def quantile_from_uniform(self, u: np.ndarray) -> np.ndarray:
        # a lattice radius r is r itself, not ceil(r) - 1
        return np.full(np.shape(u), self.r, dtype=np.int64)

    def functionals(self) -> TailFunctionals:
        return TailFunctionals(0.0, 0.0)

    def spec_string(self) -> str:
        return f"const:r={_number(self.r)}"


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


# family -> (parameter key, class, lattice parameter type,
#            continuum parameter type or None)
_LAWS = {
    "pareto": ("alpha", ParetoTail, float, float),
    "power": ("beta", PowerTail, float, float),
    "geom": ("q", Geometric, float, None),
    "const": ("r", Constant, int, float),
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


def parse_distribution(spec: str, continuous: bool = False) -> TailDistribution:
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

    head, _, rest = spec.partition(":")
    key, cls, *kinds = _LAWS.get(head, (None,) * 4)
    if kinds[continuous] is None:
        want = [family for family, law in _LAWS.items() if law[2 + continuous]]
        want += [] if continuous else ["trunc"]
        label = "continuous family" if continuous else "family"
        raise DistParseError(head, f"unknown {label} (want {'|'.join(want)})")
    value = _parse_value(rest, key, kinds[continuous], spec)
    try:
        return cls(value)
    except ValueError as e:
        raise DistParseError(rest, str(e)) from None
