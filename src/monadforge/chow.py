"""Intersection-theoretic invariants on X = P^n x P^n x P^m x P^m.

Let a, b, c, d be the pullbacks of the hyperplane classes of the four
factors and L = a + b + c + d the polarization.  The degree of a bundle F is

    deg_L(F) = c1(F) . L^{2n+2m-1},

a linear functional in c1(F) = c1.a * a + ... + c1.d * d.  Since
a^{n+1} = b^{n+1} = c^{m+1} = d^{m+1} = 0 and a^n b^n c^m d^m = 1, the pairing
of a generator with L^{2n+2m-1} is the multinomial coefficient that
distributes the remaining 2n+2m-1 factors over the four slots:

    delta_x = a . L^{2n+2m-1} = b . L^{2n+2m-1} = (2n+2m-1)! / ((n-1)! n! m! m!)
    delta_z = c . L^{2n+2m-1} = d . L^{2n+2m-1} = (2n+2m-1)! / (n! n! (m-1)! m!)

so deg_L(F) = (c1.a + c1.b) * delta_x + (c1.c + c1.d) * delta_z.  The slope
is mu_L = deg_L / rank, and delta_L(p1,p2,p3,p4) is the degree of the line
bundle O_X(p1,p2,p3,p4), the same functional.  Everything is exact integer
(or Fraction) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cohomology import LineBundleSum
from .polyring import MultiDegree, SpaceParams


def c1_of_sum(S: LineBundleSum) -> MultiDegree:
    """First Chern class of a direct sum: multiplicity-weighted degree sum."""
    total = MultiDegree(0, 0, 0, 0)
    for deg, mult in S.summands:
        total = total + deg.scale(mult)
    return total


def degree_L(c1: MultiDegree, params: SpaceParams) -> int:
    """deg_L of a bundle with first Chern class c1: c1 . L^(2n+2m-1), exactly.

    (c1.a + c1.b) * delta_x + (c1.c + c1.d) * delta_z, with the two
    multinomials of the module docstring.
    """
    n, m = params.n, params.m
    top = factorial(params.dim_x - 1)
    delta_x = top // (factorial(n - 1) * factorial(n) * factorial(m) * factorial(m))
    delta_z = top // (factorial(n) * factorial(n) * factorial(m - 1) * factorial(m))
    return (c1.a + c1.b) * delta_x + (c1.c + c1.d) * delta_z


def delta_L(B: MultiDegree, params: SpaceParams) -> int:
    """Degree of the line bundle O_X(B); linear in B."""
    return degree_L(B, params)


@dataclass(frozen=True)
class BundleInvariants:
    """Rank, c1, polarized degree and slope of a bundle; slope * rank = degree."""

    rank: int
    c1: MultiDegree
    degree_L: int
    slope_L: Fraction

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "c1": list(self.c1.as_tuple()),
            "degree": self.degree_L,
            "slope": str(self.slope_L),
        }


def c1_of_T(params: SpaceParams) -> MultiDegree:
    """c1 of the display bundle T = ker(g): c1(middle) - c1(target)."""
    n, m, k = params.n, params.m, params.k
    return MultiDegree(-n - 2 * k, -n - 2 * k, -m - 2 * k, -m - 2 * k)


def rank_of_T(params: SpaceParams) -> int:
    """rank T = rank(middle) - k = 2n + 2m + 3k."""
    return 2 * params.n + 2 * params.m + 3 * params.k


def invariants_of_T(params: SpaceParams) -> BundleInvariants:
    """Numerical invariants of T = ker(g); its polarized degree is always < 0."""
    rank = rank_of_T(params)
    c1 = c1_of_T(params)
    deg = degree_L(c1, params)
    if deg >= 0:
        raise AssertionError(
            f"degree_L(c1(T)) = {deg} is not negative for params {params}; "
            "this contradicts the structure of c1(T)"
        )
    return BundleInvariants(rank=rank, c1=c1, degree_L=deg, slope_L=Fraction(deg, rank))


def top_multinomial(params: SpaceParams) -> int:
    """The top self-intersection L^(2n+2m) = (2n+2m)! / (n! n! m! m!)."""
    n, m = params.n, params.m
    return factorial(2 * n + 2 * m) // (
        factorial(n) * factorial(n) * factorial(m) * factorial(m)
    )


def degree_simplification_check(params: SpaceParams) -> dict:
    """Compare exact deg_L(T) with the closed-form shortcut -(n+m+4k) * L^(2n+2m).

    The shortcut's coefficient is half the component sum of c1(T), which is
    not how the pairing against L^(2n+2m-1) distributes over the four
    factors (a and b weigh delta_x, c and d weigh delta_z, which differ
    unless n = m); the exact value from `degree_L` is authoritative.  The report
    carries both numbers so downstream consumers see the exact value next to
    the would-be simplification.  Both are always negative, which is the only
    fact the stability argument consumes.
    """
    n, m, k = params.n, params.m, params.k
    exact = degree_L(c1_of_T(params), params)
    shortcut = -(n + m + 4 * k) * top_multinomial(params)
    return {
        "exact_degree": exact,
        "uniform_weight_shortcut": shortcut,
        "agree": exact == shortcut,
        "note": (
            "the shortcut -(n+m+4k)*deg(L^(2n+2m)) assumes all four generators "
            "pair equally with L^(2n+2m-1); exact coefficient extraction is "
            "authoritative and both values are negative"
        ),
    }
