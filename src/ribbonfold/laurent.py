"""Exact single-variable Laurent polynomials with integer coefficients.

The variable is rendered as ``A``. Exponents may be negative; all arithmetic
is integer-exact. Instances are immutable and hashable, so polynomials can be
used directly as dictionary keys or set members when comparing invariants.

Printing is canonical and deterministic: terms appear in ascending exponent
order, unit coefficients are suppressed, e.g. ``-A^-5 + 2*A^-1 + A^3``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Dict, Tuple


class LaurentPoly:
    """An element of Z[A, A^-1]."""

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: Dict[int, int] = {}
        for exp, c in items:
            if c:
                acc[exp] = acc.get(exp, 0) + c
                if not acc[exp]:
                    del acc[exp]
        object.__setattr__(self, "_coeffs", dict(sorted(acc.items())))
        object.__setattr__(self, "_hash", hash(tuple(self._coeffs.items())))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, coeff: int, exp: int) -> "LaurentPoly":
        """coeff * A^exp"""
        return cls({exp: coeff})

    # -- inspection --------------------------------------------------------

    def coeffs(self) -> Dict[int, int]:
        """Exponent -> coefficient mapping (a copy; zero terms absent)."""
        return dict(self._coeffs)

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return next(iter(self._coeffs))

    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return next(reversed(self._coeffs))

    def span(self) -> int:
        """max exponent minus min exponent (0 for monomials)."""
        return self.max_exp() - self.min_exp()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            acc[exp] = acc.get(exp, 0) + c
        return LaurentPoly(acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            acc[exp] = acc.get(exp, 0) - c
        return LaurentPoly(acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: Dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^-1."""
        return LaurentPoly({-e: c for e, c in self._coeffs.items()})

    # -- comparison / rendering -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, (exp, c) in enumerate(self._coeffs.items()):
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "A" if exp == 1 else f"A^{exp}"
                body = var if mag == 1 else f"{mag}*{var}"
            if i == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._coeffs!r})"
