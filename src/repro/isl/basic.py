"""Basic sets and basic maps: conjunctions of affine constraints.

A :class:`BasicMap` is the set of pairs of integer tuples satisfying a
conjunction of affine constraints, possibly involving existentially
quantified *division* dimensions.  A :class:`BasicSet` is a basic map with
no input tuple.  Unions of basic sets/maps live in :mod:`repro.isl.set_`
and :mod:`repro.isl.map_`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .constraint import EQ, GE, Constraint
from .linexpr import DIV, IN, OUT, PARAM, Dim, LinExpr
from .space import Space


class BasicMap:
    """A conjunction of affine constraints relating an input tuple to an
    output tuple, over shared symbolic parameters, with ``n_div``
    existentially quantified dimensions."""

    __slots__ = ("space", "n_div", "constraints", "_hash")

    def __init__(self, space: Space, constraints: Iterable[Constraint] = (),
                 n_div: int = 0):
        self.space = space
        self.n_div = n_div
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)
        self._hash = None
        self._validate()

    def _validate(self) -> None:
        for c in self.constraints:
            for kind, idx in c.expr.dims():
                limit = self.n_div if kind == DIV else self.space.n(kind)
                if idx >= limit:
                    raise ValueError(
                        f"constraint {c!r} references ({kind},{idx}) outside "
                        f"space {self.space!r} with {self.n_div} divs")

    # -- constructors ------------------------------------------------------

    @classmethod
    def universe(cls, space: Space) -> "BasicMap":
        return cls(space, ())

    @classmethod
    def empty(cls, space: Space) -> "BasicMap":
        return cls(space, (Constraint.ge(LinExpr.constant(-1)),))

    @classmethod
    def identity(cls, space: Space) -> "BasicMap":
        if not space.is_map or len(space.in_dims) != len(space.out_dims):
            raise ValueError("identity requires a square map space")
        cons = [Constraint.eq(LinExpr.dim(OUT, k) - LinExpr.dim(IN, k))
                for k in range(len(space.out_dims))]
        return cls(space, cons)

    @classmethod
    def from_affine_exprs(cls, space: Space,
                          exprs: Sequence[LinExpr]) -> "BasicMap":
        """The map whose k-th output equals ``exprs[k]`` (an affine
        expression over the input dims and params)."""
        if len(exprs) != len(space.out_dims):
            raise ValueError("one expression per output dim required")
        cons = [Constraint.eq(LinExpr.dim(OUT, k) - e)
                for k, e in enumerate(exprs)]
        return cls(space, cons)

    # -- basic structure ---------------------------------------------------

    def copy_with(self, space: Optional[Space] = None,
                  constraints: Optional[Iterable[Constraint]] = None,
                  n_div: Optional[int] = None) -> "BasicMap":
        obj = type(self).__new__(type(self))
        obj.space = space if space is not None else self.space
        obj.n_div = n_div if n_div is not None else self.n_div
        obj.constraints = tuple(constraints) if constraints is not None \
            else self.constraints
        obj._hash = None
        obj._validate()
        return obj

    def add_constraint(self, c: Constraint) -> "BasicMap":
        return self.copy_with(constraints=self.constraints + (c,))

    def add_constraints(self, cs: Iterable[Constraint]) -> "BasicMap":
        return self.copy_with(constraints=self.constraints + tuple(cs))

    # -- parameter alignment ----------------------------------------------

    def align_params(self, params: Tuple[str, ...]) -> "BasicMap":
        """Reindex parameter dims to match the given parameter list (which
        must contain all of this map's parameters)."""
        if self.space.params == tuple(params):
            return self
        mapping: Dict[Dim, Dim] = {}
        for i, p in enumerate(self.space.params):
            j = list(params).index(p)
            if i != j:
                mapping[(PARAM, i)] = (PARAM, j)
        cons = [c.remap(mapping) for c in self.constraints]
        return self.copy_with(space=self.space.with_params(tuple(params)),
                              constraints=cons)

    def _aligned_pair(self, other: "BasicMap"):
        params = self.space.aligned_params(other.space)
        return self.align_params(params), other.align_params(params)

    # -- set operations ------------------------------------------------

    def intersect(self, other: "BasicMap") -> "BasicMap":
        from .cache import composed
        return composed("intersect", self, other,
                        lambda: self._intersect_uncached(other))

    def _intersect_uncached(self, other: "BasicMap") -> "BasicMap":
        a, b = self._aligned_pair(other)
        if not a.space.compatible_with(b.space):
            raise ValueError(f"incompatible spaces: {a.space!r} vs {b.space!r}")
        # Shift other's divs past ours.
        shift = {(DIV, k): (DIV, k + a.n_div) for k in range(b.n_div)}
        cons = list(a.constraints)
        cons.extend(c.remap(shift) for c in b.constraints)
        return a.copy_with(constraints=cons, n_div=a.n_div + b.n_div)

    def fix(self, kind: str, idx: int, value: int) -> "BasicMap":
        c = Constraint.eq(LinExpr.dim(kind, idx) - LinExpr.constant(value))
        return self.add_constraint(c)

    def lower_bound(self, kind: str, idx: int, value: int) -> "BasicMap":
        return self.add_constraint(
            Constraint.ge(LinExpr.dim(kind, idx) - LinExpr.constant(value)))

    def equate(self, kind1: str, idx1: int, kind2: str, idx2: int) -> "BasicMap":
        c = Constraint.eq(LinExpr.dim(kind1, idx1) - LinExpr.dim(kind2, idx2))
        return self.add_constraint(c)

    # -- dimension manipulation ------------------------------------------

    def project_onto_divs(self, kind: str,
                          indices: Sequence[int]) -> "BasicMap":
        """Existentially quantify the given dims (exact projection).

        The dims are removed from the space; remaining dims of the same
        kind shift down.
        """
        indices = sorted(set(indices))
        mapping: Dict[Dim, Dim] = {}
        keep = [i for i in range(self.space.n(kind)) if i not in indices]
        for new_i, old_i in enumerate(keep):
            mapping[(kind, old_i)] = (kind, new_i)
        for off, old_i in enumerate(indices):
            mapping[(kind, old_i)] = (DIV, self.n_div + off)
        cons = [c.remap(mapping) for c in self.constraints]
        space = self._space_without(kind, indices)
        return self.copy_with(space=space, constraints=cons,
                              n_div=self.n_div + len(indices))

    def _space_without(self, kind: str, indices: Sequence[int]) -> Space:
        sp = self.space
        if kind == OUT:
            dims = tuple(d for i, d in enumerate(sp.out_dims)
                         if i not in indices)
            return Space(sp.params, sp.in_dims, dims, sp.in_name, sp.out_name)
        if kind == IN:
            dims = tuple(d for i, d in enumerate(sp.in_dims)
                         if i not in indices)
            return Space(sp.params, dims, sp.out_dims, sp.in_name, sp.out_name)
        if kind == PARAM:
            dims = tuple(d for i, d in enumerate(sp.params)
                         if i not in indices)
            return Space(dims, sp.in_dims, sp.out_dims, sp.in_name,
                         sp.out_name)
        raise ValueError(kind)

    def insert_dims(self, kind: str, pos: int, names: Sequence[str]) -> "BasicMap":
        """Insert new unconstrained dims of ``kind`` at position ``pos``."""
        n = self.space.n(kind)
        mapping = {(kind, i): (kind, i + len(names))
                   for i in range(pos, n)}
        cons = [c.remap(mapping) for c in self.constraints]
        sp = self.space
        if kind == OUT:
            dims = sp.out_dims[:pos] + tuple(names) + sp.out_dims[pos:]
            space = Space(sp.params, sp.in_dims, dims, sp.in_name, sp.out_name)
        elif kind == IN:
            dims = sp.in_dims[:pos] + tuple(names) + sp.in_dims[pos:]
            space = Space(sp.params, dims, sp.out_dims, sp.in_name, sp.out_name)
        elif kind == PARAM:
            dims = sp.params[:pos] + tuple(names) + sp.params[pos:]
            space = Space(dims, sp.in_dims, sp.out_dims, sp.in_name,
                          sp.out_name)
        else:
            raise ValueError(kind)
        return self.copy_with(space=space, constraints=cons)

    def rename_tuple(self, in_name=None, out_name=None,
                     keep_in=True, keep_out=True) -> "BasicMap":
        sp = self.space
        space = Space(sp.params, sp.in_dims, sp.out_dims,
                      in_name if not keep_in else sp.in_name,
                      out_name if not keep_out else sp.out_name)
        return self.copy_with(space=space)

    # -- map structure -----------------------------------------------------

    def reverse(self) -> "BasicMap":
        if not self.space.is_map:
            raise ValueError("reverse() requires a map")
        n_in = len(self.space.in_dims)
        n_out = len(self.space.out_dims)
        mapping: Dict[Dim, Dim] = {}
        for k in range(n_in):
            mapping[(IN, k)] = (OUT, k)
        for k in range(n_out):
            mapping[(OUT, k)] = (IN, k)
        cons = [c.remap(mapping) for c in self.constraints]
        return self.copy_with(space=self.space.reverse(), constraints=cons)

    def domain(self) -> "BasicSet":
        """Project onto the input tuple (outputs become divs)."""
        if not self.space.is_map:
            raise ValueError("domain() requires a map")
        n_out = len(self.space.out_dims)
        mapping: Dict[Dim, Dim] = {
            (OUT, k): (DIV, self.n_div + k) for k in range(n_out)}
        mapping.update({(IN, k): (OUT, k)
                        for k in range(len(self.space.in_dims))})
        cons = [c.remap(mapping) for c in self.constraints]
        return BasicSet(self.space.domain(), cons, self.n_div + n_out)

    def range(self) -> "BasicSet":
        if not self.space.is_map:
            raise ValueError("range() requires a map")
        n_in = len(self.space.in_dims)
        mapping: Dict[Dim, Dim] = {
            (IN, k): (DIV, self.n_div + k) for k in range(n_in)}
        cons = [c.remap(mapping) for c in self.constraints]
        return BasicSet(self.space.range(), cons, self.n_div + n_in)

    def wrap_domain(self, bset: "BasicSet") -> "BasicMap":
        """Constrain the input tuple to lie in ``bset``."""
        a, b = self._aligned_pair(bset)
        mapping: Dict[Dim, Dim] = {
            (OUT, k): (IN, k) for k in range(len(b.space.out_dims))}
        mapping.update({(DIV, k): (DIV, k + a.n_div)
                        for k in range(b.n_div)})
        cons = list(a.constraints)
        cons.extend(c.remap(mapping) for c in b.constraints)
        return a.copy_with(constraints=cons, n_div=a.n_div + b.n_div)

    intersect_domain = wrap_domain

    def intersect_range(self, bset: "BasicSet") -> "BasicMap":
        a, b = self._aligned_pair(bset)
        mapping: Dict[Dim, Dim] = {(DIV, k): (DIV, k + a.n_div)
                                   for k in range(b.n_div)}
        cons = list(a.constraints)
        cons.extend(c.remap(mapping) for c in b.constraints)
        return a.copy_with(constraints=cons, n_div=a.n_div + b.n_div)

    def apply(self, bset: "BasicSet") -> "BasicSet":
        """The image of ``bset`` under this map (exact)."""
        return self.wrap_domain(bset).range()

    def apply_range(self, other: "BasicMap") -> "BasicMap":
        """Composition: ``other`` applied after ``self`` (A->B, B->C: A->C)."""
        from .cache import composed
        return composed("apply_range", self, other,
                        lambda: self._apply_range_uncached(other))

    def _apply_range_uncached(self, other: "BasicMap") -> "BasicMap":
        a, b = self._aligned_pair(other)
        if len(a.space.out_dims) != len(b.space.in_dims):
            raise ValueError("composition arity mismatch")
        n_mid = len(a.space.out_dims)
        base = a.n_div + b.n_div
        # a's OUT and b's IN both become the shared mid dims (new divs).
        map_a: Dict[Dim, Dim] = {(OUT, k): (DIV, base + k)
                                 for k in range(n_mid)}
        map_b: Dict[Dim, Dim] = {(IN, k): (DIV, base + k)
                                 for k in range(n_mid)}
        map_b.update({(DIV, k): (DIV, k + a.n_div) for k in range(b.n_div)})
        cons = [c.remap(map_a) for c in a.constraints]
        cons.extend(c.remap(map_b) for c in b.constraints)
        space = Space(a.space.params, a.space.in_dims, b.space.out_dims,
                      a.space.in_name, b.space.out_name)
        return BasicMap(space, cons, base + n_mid)

    def to_set(self) -> "BasicSet":
        """Flatten a map into a set over (in_dims ++ out_dims)."""
        if not self.space.is_map:
            raise ValueError("to_set() requires a map")
        n_in = len(self.space.in_dims)
        mapping: Dict[Dim, Dim] = {(IN, k): (OUT, k) for k in range(n_in)}
        mapping.update({(OUT, k): (OUT, k + n_in)
                        for k in range(len(self.space.out_dims))})
        cons = [c.remap(mapping) for c in self.constraints]
        names = tuple(self.space.in_dims) + tuple(self.space.out_dims)
        # Disambiguate duplicated names across the two tuples.
        seen: Dict[str, int] = {}
        uniq = []
        for nm in names:
            if nm in seen:
                seen[nm] += 1
                uniq.append(f"{nm}_{seen[nm]}")
            else:
                seen[nm] = 0
                uniq.append(nm)
        space = Space.set_space(tuple(uniq), None, self.space.params)
        return BasicSet(space, cons, self.n_div)

    # -- feasibility -------------------------------------------------------

    def canonical_fingerprint(self) -> Tuple:
        """Order- and duplicate-insensitive normal form of the constraint
        system.  Two basic maps with equal fingerprints describe the same
        solution set over their free variables (constraints normalise at
        construction), which is exactly the invariant the process-wide
        emptiness memo (:mod:`repro.isl.cache`) keys on."""
        return tuple(sorted({c.canonical_key() for c in self.constraints}))

    def is_empty(self) -> bool:
        from .cache import is_empty_cached
        return is_empty_cached(self)

    def contains_point(self, in_vals: Sequence[int],
                       out_vals: Sequence[int] = (),
                       param_vals: Mapping[str, int] = ()) -> bool:
        """Membership test; existential divs are searched exactly."""
        values: Dict[Dim, int] = {}
        pv = dict(param_vals)
        for i, p in enumerate(self.space.params):
            if p in pv:
                values[(PARAM, i)] = pv[p]
        if self.space.is_map:
            for i, v in enumerate(in_vals):
                values[(IN, i)] = v
            for i, v in enumerate(out_vals):
                values[(OUT, i)] = v
        else:
            for i, v in enumerate(in_vals):
                values[(OUT, i)] = v
        fixed = self
        for dim, v in values.items():
            fixed = fixed.fix(dim[0], dim[1], v)
        return not fixed.is_empty()

    def __repr__(self) -> str:
        from .printer import to_str
        return to_str(self)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BasicMap)
                and self.space == other.space
                and self.n_div == other.n_div
                and set(self.constraints) == set(other.constraints))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.space, self.n_div,
                               frozenset(self.constraints)))
        return self._hash


class BasicSet(BasicMap):
    """A basic map with no input tuple: a plain integer set."""

    def __init__(self, space: Space, constraints: Iterable[Constraint] = (),
                 n_div: int = 0):
        if space.is_map:
            raise ValueError("BasicSet requires a set space")
        super().__init__(space, constraints, n_div)

    @classmethod
    def from_box(cls, names: Sequence[str],
                 bounds: Sequence[Tuple[int, int]],
                 name: Optional[str] = None) -> "BasicSet":
        """A rectangular set: ``bounds[k] = (lo, hi)`` inclusive."""
        space = Space.set_space(tuple(names), name)
        cons: List[Constraint] = []
        for k, (lo, hi) in enumerate(bounds):
            cons.append(Constraint.ge(LinExpr.dim(OUT, k) - lo))
            cons.append(Constraint.ge(LinExpr.constant(hi) - LinExpr.dim(OUT, k)))
        return cls(space, cons)

    def identity_map(self) -> BasicMap:
        """The identity map on this set's space, restricted to this set."""
        sp = self.space
        mspace = Space.map_space(sp.out_dims, sp.out_dims, sp.out_name,
                                 sp.out_name, sp.params)
        ident = BasicMap.identity(mspace)
        return ident.wrap_domain(self)
