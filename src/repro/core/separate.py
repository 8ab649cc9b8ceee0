"""Full/partial tile separation (paper Sections V-A and VI-A).

"[Tiramisu] can also avoid thread divergence by separating full tiles
(loop nests with a size that is multiple of the tile size) from partial
tiles" — and on CPU, separation "is crucial to enable vectorization,
unrolling, and reducing control overhead".

``separate(comp, level)`` splits a computation's scheduled instances at
the given loop level into a *full* part (iterations where the level's
bounds reach their full extent, so the loop body carries no boundary
guards and vectorizes) and a *partial* remainder, cloned into a new
computation ordered right after the original.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isl import BasicSet, Constraint, LinExpr, Set
from repro.isl.fourier_motzkin import bounds_on_dim, eliminate_dims
from repro.isl.linexpr import OUT

from .computation import Computation
from .errors import ScheduleError
from .schedule import level_index


def _split_piece(piece: BasicSet, level: int, n_dims: int
                 ) -> Optional[Tuple[BasicSet, List[BasicSet]]]:
    """Split one piece at ``level`` into (full, partials).

    The split condition: among the level's upper bounds, the *tightest
    constant-extent* bound (e.g. ``i1 <= t-1`` from tiling) holds with
    slack against every other bound.  Returns None if the level has a
    single upper bound (nothing to separate).
    """
    inner = [(OUT, d) for d in range(level + 1, n_dims)]
    cons = eliminate_dims(piece.constraints, inner)
    lowers, uppers = bounds_on_dim(cons, (OUT, level))
    if len(uppers) < 2 and len(lowers) < 2:
        return None
    full = piece
    partial_conds: List[Constraint] = []
    # A piece is "full" when, for every pair of upper bounds (b1,f1),
    # (b2,f2), the constant-coefficient one is the binding one; encode as
    # pairwise dominance constraints on the outer dims.
    for b1, f1 in uppers:
        for b2, f2 in uppers:
            if (b1, f1) == (b2, f2):
                continue
            # full requires f1/b1 <= f2/b2  <=>  b2*f1 <= b1*f2
            dom = f2 * b1 - f1 * b2
            if not _constant_first(f1, f2):
                continue
            full = full.add_constraint(Constraint.ge(dom))
            partial_conds.append(Constraint.ge(-dom - 1))
    for a1, e1 in lowers:
        for a2, e2 in lowers:
            if (a1, e1) == (a2, e2):
                continue
            dom = e1 * a2 - e2 * a1   # e1/a1 >= e2/a2: const binds
            if not _constant_first(e1, e2):
                continue
            full = full.add_constraint(Constraint.ge(dom))
            partial_conds.append(Constraint.ge(-dom - 1))
    if not partial_conds:
        return None
    partials = [piece.add_constraint(c) for c in partial_conds]
    return full, partials


def _constant_first(e1: LinExpr, e2: LinExpr) -> bool:
    """True when e1 is the tile-shaped bound (a plain constant, like the
    ``t - 1`` from tiling) and e2 carries the image/matrix boundary (it
    references outer dims or parameters)."""
    e1_simple = not e1.involves_kind("o") and not e1.involves_kind("p")
    e2_boundary = e2.involves_kind("o") or e2.involves_kind("p")
    return e1_simple and e2_boundary


def separate(comp: Computation, level) -> Optional[Computation]:
    """Separate full from partial tiles at ``level``.

    Returns the new computation holding the partial iterations (or None
    when the level has nothing to separate).  The partial computation
    shares the original's expression and buffer and is ordered after it
    at the parent level.
    """
    from repro.codegen.domains import prepare_pieces
    l = level_index(comp, level)
    n = len(comp.time_names)
    fulls: List[BasicSet] = []
    partials: List[BasicSet] = []
    for piece in prepare_pieces(comp.instances):
        split = _split_piece(piece, l, n)
        if split is None:
            fulls.append(piece)
            continue
        full, parts = split
        if not full.is_empty():
            fulls.append(full)
        partials.extend(p for p in parts if not p.is_empty())
    if not partials:
        return None
    fn = comp.function
    clone = Computation.__new__(Computation)
    clone.function = fn
    suffix = 0
    name = f"{comp.name}__partial"
    while any(c.name == name for c in fn.computations):
        suffix += 1
        name = f"{comp.name}__partial{suffix}"
    clone.name = name
    clone.vars = list(comp.vars)
    clone.var_names = list(comp.var_names)
    clone.dtype = comp.dtype
    clone.expr = comp.expr
    clone.predicate = comp.predicate
    clone.domain = comp.domain
    clone.time_names = list(comp.time_names)
    clone.instances = Set(partials, comp.instances.space)
    clone.rev = dict(comp.rev)
    # Partial tiles keep parallel/distributed/gpu tags but drop vector
    # and unroll (the whole point: they run the scalar epilogue).
    clone.tags = {k: t for k, t in comp.tags.items()
                  if t.kind not in ("vector", "unroll")}
    clone.anchor = comp.anchor
    clone.inlined = False
    clone.buffer = comp.get_buffer()
    clone.store_exprs = (list(comp.store_exprs)
                         if comp.store_exprs is not None else None)
    clone.cached_reads = dict(comp.cached_reads)
    clone.cached_store = comp.cached_store
    fn._register_clone(clone)
    comp.instances = Set(fulls, comp.instances.space)
    # The epilogue runs as its own loop nest after the full tiles (its
    # domain already pins the partial region, e.g. the last tile row),
    # so neither nest carries the other's bounds or guards.
    fn.order_after(clone, comp, -1)
    return clone
