"""Finite unions of basic sets and basic maps.

:class:`Set` and :class:`Map` mirror the ISL types ``isl_set`` and
``isl_map``: a disjunction of :class:`~repro.isl.basic.BasicSet` /
:class:`~repro.isl.basic.BasicMap` pieces over a common space.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .basic import BasicMap, BasicSet
from .constraint import EQ, GE, Constraint
from .linexpr import LinExpr
from .space import Space


class Map:
    """A union of basic maps sharing one space."""

    piece_type = BasicMap

    __slots__ = ("space", "pieces")

    def __init__(self, pieces: Iterable[BasicMap], space: Optional[Space] = None):
        pieces = [p for p in pieces]
        if space is None:
            if not pieces:
                raise ValueError("empty union needs an explicit space")
            space = pieces[0].space
        for p in pieces:
            if not p.space.compatible_with(space):
                raise ValueError(
                    f"piece space {p.space!r} incompatible with {space!r}")
        params = space.params
        for p in pieces:
            merged = list(params)
            for q in p.space.params:
                if q not in merged:
                    merged.append(q)
            params = tuple(merged)
        space = space.with_params(params)
        self.space = space
        self.pieces: Tuple[BasicMap, ...] = tuple(
            p.align_params(params) for p in pieces)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_basic(cls, piece: BasicMap) -> "Map":
        return cls([piece])

    @classmethod
    def empty(cls, space: Space) -> "Map":
        return cls([], space)

    # -- plumbing --------------------------------------------------------

    def _wrap(self, pieces: Sequence[BasicMap], space: Optional[Space] = None
              ) -> "Map":
        if space is None:
            space = pieces[0].space if pieces else self.space
        cls = Map if space.is_map else Set
        return cls(pieces, space)

    def map_pieces(self, fn: Callable[[BasicMap], BasicMap],
                   space_fn: Callable[[Space], Space] = None) -> "Map":
        pieces = [fn(p) for p in self.pieces]
        space = space_fn(self.space) if space_fn else \
            (pieces[0].space if pieces else self.space)
        return self._wrap(pieces, space)

    # -- algebra -----------------------------------------------------------

    def union(self, other: "Map") -> "Map":
        return self._wrap(list(self.pieces) + list(other.pieces),
                          self.space)

    __or__ = union

    def intersect(self, other: "Map") -> "Map":
        pieces = [a.intersect(b) for a in self.pieces for b in other.pieces]
        pieces = [p for p in pieces if not _quick_empty(p)]
        return self._wrap(pieces, self.space)

    __and__ = intersect

    def subtract(self, other: "Map") -> "Map":
        """Exact difference; requires the subtrahend pieces be div-free."""
        result = list(self.pieces)
        for b in other.pieces:
            if b.n_div:
                raise NotImplementedError(
                    "subtract with existential dims in the subtrahend")
            new_result: List[BasicMap] = []
            for a in result:
                new_result.extend(_basic_subtract(a, b))
            result = new_result
        result = [p for p in result if not p.is_empty()]
        return self._wrap(result, self.space)

    __sub__ = subtract

    # -- queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.pieces)

    def is_subset(self, other: "Map") -> bool:
        return self.subtract(other).is_empty()

    def is_equal(self, other: "Map") -> bool:
        return self.is_subset(other) and other.is_subset(self)

    def contains_point(self, *args, **kwargs) -> bool:
        return any(p.contains_point(*args, **kwargs) for p in self.pieces)

    # -- map structure ----------------------------------------------------

    def reverse(self) -> "Map":
        return self.map_pieces(lambda p: p.reverse(),
                               lambda s: s.reverse())

    def domain(self) -> "Set":
        return Set([p.domain() for p in self.pieces], self.space.domain())

    def range(self) -> "Set":
        return Set([p.range() for p in self.pieces], self.space.range())

    def apply(self, sset: "Set") -> "Set":
        pieces = [p.apply(b) for p in self.pieces for b in sset.pieces]
        return Set(pieces, self.space.range())

    def apply_range(self, other: "Map") -> "Map":
        pieces = [a.apply_range(b)
                  for a in self.pieces for b in other.pieces]
        space = Space(self.space.params, self.space.in_dims,
                      other.space.out_dims, self.space.in_name,
                      other.space.out_name)
        return Map(pieces, space)

    def intersect_domain(self, sset: "Set") -> "Map":
        pieces = [a.intersect_domain(b)
                  for a in self.pieces for b in sset.pieces]
        return self._wrap(pieces, self.space)

    def intersect_range(self, sset: "Set") -> "Map":
        pieces = [a.intersect_range(b)
                  for a in self.pieces for b in sset.pieces]
        return self._wrap(pieces, self.space)

    def coalesce(self) -> "Map":
        """Drop pieces contained in other pieces (cheap form)."""
        kept: List[BasicMap] = []
        for p in self.pieces:
            if p.is_empty():
                continue
            kept.append(p)
        # Remove exact duplicates.
        uniq: List[BasicMap] = []
        for p in kept:
            if not any(p == q for q in uniq):
                uniq.append(p)
        return self._wrap(uniq, self.space)

    def __repr__(self) -> str:
        from .printer import union_to_str
        return union_to_str(self.pieces)

    def __eq__(self, other: object) -> bool:
        """Structural equality, consistent with ``BasicMap.__eq__``: same
        space and the same *set* of pieces (order- and duplicate-
        insensitive, like the per-piece constraint comparison).  Note
        this is finer than :meth:`is_equal`, which compares the
        mathematical point sets; two structurally different descriptions
        of one set are ``is_equal`` but not ``==``."""
        return (isinstance(other, Map)
                and self.space == other.space
                and frozenset(self.pieces) == frozenset(other.pieces))

    def __hash__(self) -> int:
        return hash((self.space, frozenset(self.pieces)))


class Set(Map):
    """A union of basic sets."""

    piece_type = BasicSet

    def __init__(self, pieces: Iterable[BasicSet], space: Optional[Space] = None):
        super().__init__(pieces, space)
        if self.space.is_map:
            raise ValueError("Set requires a set space")

    def identity_map(self) -> Map:
        return Map([p.identity_map() for p in self.pieces],
                   Space.map_space(self.space.out_dims, self.space.out_dims,
                                   self.space.out_name, self.space.out_name,
                                   self.space.params))


def _quick_empty(p: BasicMap) -> bool:
    return any(c.is_trivially_false() for c in p.constraints)


def _basic_subtract(a: BasicMap, b: BasicMap) -> List[BasicMap]:
    """a minus b for div-free b: union over negations of b's constraints.

    ``a - b = union_k (a and c_0 and ... c_{k-1} and not c_k)`` which keeps
    the pieces disjoint.
    """
    aligned_params = a.space.aligned_params(b.space)
    a = a.align_params(aligned_params)
    b = b.align_params(aligned_params)
    out: List[BasicMap] = []
    prefix: List[Constraint] = []
    for c in b.constraints:
        for neg in _negate(c):
            piece = a.add_constraints(prefix + [neg])
            if not _quick_empty(piece):
                out.append(piece)
        prefix.append(c)
    return out


def _negate(c: Constraint) -> List[Constraint]:
    """Integer negation: not(e >= 0) is -e - 1 >= 0;
    not(e = 0) is e - 1 >= 0 or -e - 1 >= 0."""
    if c.kind == GE:
        return [Constraint.ge(-c.expr - 1)]
    return [Constraint.ge(c.expr - 1), Constraint.ge(-c.expr - 1)]
