"""Closed-form counts for self-conjugate simultaneous cores.

Every formula is evaluated in exact integer arithmetic through a
guarded binomial/multinomial kernel: any lower index out of range makes
the whole term 0, which is exactly the convention the floor-heavy
summation bounds rely on.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import comb, gcd
from operator import add, mul
from typing import NamedTuple

from .bijection import phi_context
from .errors import InvalidInputError, check_pair, check_progression, check_progression_length
from .motzkin import count_paths_dp

__all__ = [
    "CountResult",
    "binom",
    "multinom",
    "count_sc_p2",
    "count_sc_p3",
    "count_sc_d1",
    "count_sc_pair",
    "count_sym_motzkin",
    "count_corners_p2",
    "count_corners_p3",
    "CORNER_FORMULAS",
    "closed_forms",
    "count_via_paths",
    "check_shift_equivalence",
]


class CountResult(NamedTuple):
    """An exact count together with the method that produced it."""

    value: int
    method: str

    def as_json(self) -> dict:
        # Decimal prints every digit; str(int) refuses past 4,300 of them.
        # Imported here, the one place that needs it, to keep it out of a cold start.
        from decimal import Decimal

        return {"value": str(Decimal(self.value)), "method": self.method}


def binom(n: int, k: int) -> int:
    """C(n, k), or 0 whenever the indices fall out of range."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def multinom(n: int, parts: Iterable[int]) -> int:
    """n! / prod(parts!), or 0 unless all parts are >= 0 and sum to n."""
    parts = tuple(parts)
    if n < 0 or any(k < 0 for k in parts) or sum(parts) != n:
        return 0
    total = 1
    rest = n
    for k in parts:
        total *= comb(rest, k)
        rest -= k
    return total


def count_sc_p2(s: int, d: int) -> CountResult:
    """Number of self-conjugate (s, s+d, s+2d)-cores."""
    check_progression(s, d)
    if d % 2 == 0:
        n = (s + d - 1) // 2
        total = sum(
            multinom(n, (i, d // 2 + i, (s - 1) // 2 - 2 * i))
            for i in range(s // 4 + 1)
        )
    else:
        n = (s + d - 1) // 2
        total = sum(
            multinom(n, (i // 2, (d + i) // 2, s // 2 - i))
            for i in range(s // 2 + 1)
        )
    return CountResult(total, "formula-p2")


def count_sc_p3(s: int, d: int) -> CountResult:
    """Number of self-conjugate (s, s+d, s+2d, s+3d)-cores."""
    check_progression(s, d)
    if d % 2 == 0:
        n = (s + d - 1) // 2
        total = sum(
            binom(n - i, (s - 1) // 2 - 2 * i) * binom(n - i, i)
            for i in range(s // 4 + 1)
        )
    else:
        total = sum(
            binom((s + d - 1) // 2 - i // 2, s // 2 - i)
            * binom((s + d) // 2 - (i + 1) // 2, i // 2)
            for i in range(s // 2 + 1)
        )
    return CountResult(total, "formula-p3")


def count_sc_d1(s: int, p: int) -> CountResult:
    """Number of self-conjugate (s, s+1, ..., s+p)-cores.

    The double sum 1 + sum over 1 <= k <= s/2 and
    0 <= l <= min(k-1, (s-2k)/(p-2)) of
    C((k-1)//2, l//2) * C(k//2, (l+1)//2) * C((s - l(p-2)) // 2, k).

    For p = 2 the inner bound min(k-1, (s-2k)/(p-2)) degenerates; the
    second argument is then vacuous and the bound is k-1, the only
    reading consistent with the p = 2 formula above.

    The terms are summed in one of two orders, chosen by p.  At p = 2
    the last factor is C(s // 2, k) for every l, so k runs outside and
    that factor multiplies each k's sum of hook products once.  For
    p >= 3 it changes with l, so l runs outside and each term follows
    from the one before by a ratio step.
    """
    if not (isinstance(s, int) and s >= 1):
        raise InvalidInputError(f"s must be a positive integer, got {s!r}")
    check_progression_length(p)
    total = 1
    if p == 2:
        # k outside, with n = s // 2: C(n, k) takes one ratio step from
        # C(n, k-1).  The hook binomials of k are Pascal rows a = (k-1)//2
        # and b = k//2; k odd makes them one row, and k even moves b up by
        # one.  The even l = 2i <= k-1 pair C(a, i) with C(b, i), i <= a;
        # the odd l = 2i+1 <= k-1 pair C(a, i) with C(b, i+1), i < b.  So
        # each l-sum is two dot products, and C(n, k) one big multiply.
        n = s // 2
        c_nk = 1  # C(n, k)
        row_a = row_b = [1]
        for k in range(1, n + 1):
            c_nk = c_nk * (n - k + 1) // k
            if k % 2:
                row_a = row_b
            else:
                row_b = [1, *map(add, row_b, row_b[1:]), 1]
            total += c_nk * (sum(map(mul, row_a, row_b)) + sum(map(mul, row_a, row_b[1:])))
        return CountResult(total, "formula-d1")
    # l outside: the bound l <= (s - 2k) / (p - 2) is k <= n =
    # (s - l(p-2)) // 2, and n <= s // 2, so for fixed l, k runs over
    # l+1 .. n.  Stepping k to k+1 changes C(n, k) and one of the two
    # hook binomials, whose top is then (k+1) // 2 and whose bottom is
    # l // 2 (k even) or (l+1) // 2 (k odd); the term moves by one exact
    # multiply and divide.  At k = l+1 both hook binomials are 1, and
    # since k > l their tops never fall below their bottoms, so no
    # divisor is ever 0.
    for ell in range(s // 2):
        n = (s - ell * (p - 2)) // 2
        if n <= ell:
            break
        bottoms = (ell // 2, (ell + 1) // 2)
        term = comb(n, ell + 1)
        total += term
        for k in range(ell + 1, n):
            top = (k + 1) // 2
            term = term * ((n - k) * top) // ((k + 1) * (top - bottoms[k % 2]))
            total += term
    return CountResult(total, "formula-d1")


def count_sc_pair(s: int, t: int) -> CountResult:
    """Number of self-conjugate (s, t)-cores for coprime s, t."""
    check_pair(s, t)
    return CountResult(binom(s // 2 + t // 2, s // 2), "formula-pair")


def count_sym_motzkin(s: int) -> CountResult:
    """Number of symmetric Motzkin paths of length s.

    Equals the number of self-conjugate (s, s+1, s+2)-cores.
    """
    if not (isinstance(s, int) and s >= 1):
        raise InvalidInputError(f"s must be a positive integer, got {s!r}")
    half = s // 2
    total = sum(binom(half, i) * binom(i, i // 2) for i in range(half + 1))
    return CountResult(total, "sym-motzkin")


def count_corners_p2(s: int, m: int) -> CountResult:
    """Number of self-conjugate (s, s+1, s+2)-cores with m corners."""
    _require_corner_args(s, m)
    half = s // 2
    return CountResult(
        multinom(half, (m // 2, (m + 1) // 2, half - m)), "corner-p2"
    )


def count_corners_p3(s: int, m: int) -> CountResult:
    """Number of self-conjugate (s, s+1, s+2, s+3)-cores with m corners."""
    _require_corner_args(s, m)
    half = s // 2
    return CountResult(
        binom(half - m // 2, half - m)
        * binom((s + 1) // 2 - (m + 1) // 2, m // 2),
        "corner-p3",
    )


# Corner-refined counts of d = 1 cores, keyed by the progression length p.
CORNER_FORMULAS = {2: count_corners_p2, 3: count_corners_p3}


def closed_forms(s: int, d: int, p: int) -> list[CountResult]:
    """Every closed-form count that applies to (s, d, p): p2, p3, d1 in that order.

    (s, d) is checked first and p >= 2 next, as on every path route, so
    bad parameters are refused even where no closed form applies.  The
    list is empty when no closed form covers the parameters.
    """
    check_progression(s, d)
    check_progression_length(p)
    results = []
    if p == 2:
        results.append(count_sc_p2(s, d))
    if p == 3:
        results.append(count_sc_p3(s, d))
    if d == 1:
        results.append(count_sc_d1(s, p))
    return results


def _require_corner_args(s: int, m: int) -> None:
    if not (isinstance(s, int) and s >= 1):
        raise InvalidInputError(f"s must be a positive integer, got {s!r}")
    if not (isinstance(m, int) and m >= 0):
        raise InvalidInputError(f"corner count must be a nonnegative integer, got {m!r}")


def count_via_paths(s: int, d: int, p: int) -> CountResult:
    """Core count through the lattice-path encoding (automaton DP)."""
    prog = phi_context(s, d, p)
    return CountResult(count_paths_dp(prog.x, prog.y, prog.constraints), "dp")


def check_shift_equivalence(s: int, d: int, p: int) -> bool:
    """Counts for (s, d) and (s+1, d) agree when d is odd and s, p even.

    Both progressions map onto identically constrained paths of the
    same type, so the counts must be equal; this evaluates both sides
    and compares.  Requires gcd(s+1, d) = 1 as well: otherwise the
    shifted progression shares a common factor and its core set is
    infinite, so there is nothing to compare.
    """
    check_progression(s, d)
    if d % 2 == 0 or s % 2 == 1 or p % 2 == 1 or p < 2:
        raise InvalidInputError(
            f"shift equivalence needs odd d and even s, p; got s={s}, d={d}, p={p}"
        )
    if gcd(s + 1, d) != 1:
        raise InvalidInputError(
            f"s+1={s + 1} and d={d} share a factor; the shifted core set is infinite"
        )
    lhs = count_via_paths(s, d, p).value
    rhs = count_via_paths(s + 1, d, p).value
    if p == 2:
        lhs_formula = count_sc_p2(s, d).value
        rhs_formula = count_sc_p2(s + 1, d).value
        if lhs_formula != lhs or rhs_formula != rhs:
            return False
    return lhs == rhs
