"""Affine constraints: equalities ``e = 0`` and inequalities ``e >= 0``."""

from __future__ import annotations

from typing import Mapping

from .linexpr import Dim, LinExpr

EQ = "eq"
GE = "ge"


class Constraint:
    """A normalised affine constraint over the dims of a space.

    ``kind == EQ`` means ``expr == 0``; ``kind == GE`` means ``expr >= 0``.
    Expressions are normalised to integer coefficients.  For equalities the
    coefficient GCD is divided out and the sign canonicalised; inequalities
    are *tightened*: if ``g = gcd(coeffs)``, then ``sum c_i x_i + k >= 0``
    is equivalent (over the integers) to
    ``sum (c_i/g) x_i + floor(k/g) >= 0``.
    """

    __slots__ = ("kind", "expr")

    def __init__(self, kind: str, expr: LinExpr):
        if kind not in (EQ, GE):
            raise ValueError(f"bad constraint kind {kind!r}")
        expr = expr.scaled_to_int()
        g = expr.coeff_gcd()
        if g > 1:
            if kind == EQ:
                if int(expr.const) % g != 0:
                    # Equality with no integer solutions; dividing out the
                    # *content* (which never divides the whole gcd here)
                    # keeps it detectably infeasible while letting scaled
                    # copies (4i = 6 vs 2i = 3) share one normal form.
                    expr = expr.primitive()
                else:
                    expr = LinExpr(
                        {d: int(c) // g for d, c in expr.coeffs.items()},
                        int(expr.const) // g)
            else:
                expr = LinExpr(
                    {d: int(c) // g for d, c in expr.coeffs.items()},
                    int(expr.const) // g if int(expr.const) >= 0
                    else -((-int(expr.const) + g - 1) // g))
        if kind == EQ and expr.coeffs:
            # Canonical sign: first (sorted) nonzero coefficient positive.
            first = next(iter(expr.coeffs.values()))
            if first < 0:
                expr = -expr
        self.kind = kind
        self.expr = expr

    # -- constructors ------------------------------------------------------

    @classmethod
    def eq(cls, expr: LinExpr) -> "Constraint":
        return cls(EQ, expr)

    @classmethod
    def ge(cls, expr: LinExpr) -> "Constraint":
        return cls(GE, expr)

    @classmethod
    def le(cls, expr: LinExpr) -> "Constraint":
        """expr <= 0, stored as -expr >= 0."""
        return cls(GE, -expr)

    # -- queries -----------------------------------------------------------

    def involves(self, dim: Dim) -> bool:
        return self.expr.involves(dim)

    def is_trivially_true(self) -> bool:
        if self.expr.is_constant():
            c = self.expr.const
            return c == 0 if self.kind == EQ else c >= 0
        return False

    def is_trivially_false(self) -> bool:
        if self.expr.is_constant():
            c = self.expr.const
            return c != 0 if self.kind == EQ else c < 0
        if self.kind == EQ:
            g = self.expr.coeff_gcd()
            if g > 1 and int(self.expr.const) % g != 0:
                return True
        return False

    def satisfied_by(self, values: Mapping[Dim, int]) -> bool:
        v = self.expr.evaluate(values)
        return v == 0 if self.kind == EQ else v >= 0

    def substitute(self, dim: Dim, repl: LinExpr) -> "Constraint":
        return Constraint(self.kind, self.expr.substitute(dim, repl))

    def remap(self, mapping: Mapping[Dim, Dim]) -> "Constraint":
        return Constraint(self.kind, self.expr.remap(mapping))

    def canonical_key(self) -> tuple:
        """The hashable, totally ordered normal form of this constraint.

        Construction already normalises the expression (integer scaling,
        gcd reduction with tightening, canonical equality sign), so the
        key is just the structural content; the memo caches in
        :mod:`repro.isl.cache` sort these keys to get an order- and
        duplicate-insensitive fingerprint of a whole system.
        """
        return (self.kind, tuple(self.expr.coeffs.items()),
                int(self.expr.const))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Constraint) and self.kind == other.kind
                and self.expr == other.expr)

    def __hash__(self) -> int:
        return hash((self.kind, self.expr))

    def __repr__(self) -> str:
        op = "=" if self.kind == EQ else ">="
        return f"{self.expr!r} {op} 0"
