"""Exact polyhedral dependence analysis and schedule legality checking.

The paper distinguishes Tiramisu from Halide precisely here (Table I,
"Exact dependence analysis" / "Compile-time set emptiness check"):
transformation legality is decided by checking emptiness of dependence
violation sets rather than by conservative syntactic rules.

Dependences are memory-based relations (flow, anti, output) between
statement instances, computed exactly from the affine access functions;
non-affine indices (``clamp``) are over-approximated by leaving the
accessed dimension unconstrained, as Section V-B prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.affine import NonAffineError, expr_to_linexpr
from repro.ir.expr import accesses_in, substitute_exprs
from repro.isl import (IN, OUT, PARAM, BasicMap, Constraint, LinExpr, Map,
                       Set, Space)

from .errors import IllegalScheduleError
from .computation import Computation, Input, Operation


@dataclass
class Dependence:
    kind: str                    # "flow" | "anti" | "output"
    source: Computation
    sink: Computation
    buffer: object
    relation: Map                # source domain -> sink domain

    def __repr__(self):
        return (f"<{self.kind} dep {self.source.name} -> {self.sink.name} "
                f"on {self.buffer.name}>")


# -- access relations --------------------------------------------------------


def _param_table(comp) -> Dict[str, Tuple[str, int]]:
    return {p: (PARAM, i)
            for i, p in enumerate(comp.function.param_names)}


def write_map(comp: Computation) -> Optional[Map]:
    """Map: computation domain -> written buffer element."""
    if comp.expr is None or isinstance(comp, (Input, Operation)):
        return None
    return _access_map(comp, comp.store_indices(), comp.get_buffer())


def read_maps(comp: Computation) -> List[Tuple[object, Map]]:
    """All (buffer, map) pairs this computation reads."""
    out: List[Tuple[object, Map]] = []
    if comp.expr is None:
        return out
    exprs = [comp.expr]
    if comp.predicate is not None:
        exprs.append(comp.predicate)
    for e in exprs:
        for acc in accesses_in(e):
            producer = acc.computation
            if producer.inlined:
                # Reads of an inlined computation become reads of what it
                # reads, with its vars substituted.
                table = {nm: idx for nm, idx in
                         zip(producer.var_names, acc.indices)}
                inner = substitute_exprs(producer.expr, table)
                for sub in accesses_in(inner):
                    out.extend(_resolve_read(comp, sub))
                continue
            out.extend(_resolve_read(comp, acc))
    return out


def _resolve_read(comp, acc) -> List[Tuple[object, Map]]:
    producer = acc.computation
    table = {nm: idx for nm, idx in zip(producer.var_names, acc.indices)}
    buf_indices = [substitute_exprs(e, table)
                   for e in producer.store_indices()]
    m = _access_map(comp, buf_indices, producer.get_buffer())
    return [(producer.get_buffer(), m)] if m is not None else []


def _access_map(comp, index_exprs, buffer) -> Optional[Map]:
    params = comp.function.param_names
    n = len(comp.var_names)
    buf_dims = tuple(f"a{k}" for k in range(len(index_exprs)))
    space = Space.map_space(tuple(comp.var_names), buf_dims,
                            comp.name, buffer.name, params)
    table = _param_table(comp)
    table.update({nm: (IN, k) for k, nm in enumerate(comp.var_names)})
    cons: List[Constraint] = []
    for k, e in enumerate(index_exprs):
        try:
            le = expr_to_linexpr(e, table)
        except NonAffineError:
            continue  # over-approximate: dimension unconstrained
        cons.append(Constraint.eq(LinExpr.dim(OUT, k) - le))
    bm = BasicMap(space, cons)
    return Map.from_basic(bm).intersect_domain(comp.domain)


# -- dependence computation ---------------------------------------------------


def _lex_lt_relation(names: Sequence[str], tuple_name: str,
                     params: Tuple[str, ...]) -> Map:
    """{ x -> y : x lexicographically-strictly-before y } on same space."""
    n = len(names)
    space = Space.map_space(tuple(names), tuple(names), tuple_name,
                            tuple_name, params)
    pieces = []
    for k in range(n):
        cons = [Constraint.eq(LinExpr.dim(OUT, j) - LinExpr.dim(IN, j))
                for j in range(k)]
        cons.append(Constraint.ge(LinExpr.dim(OUT, k)
                                  - LinExpr.dim(IN, k) - 1))
        pieces.append(BasicMap(space, cons))
    return Map(pieces, space)


class _AccessTables:
    """Per-function access relations, built once and shared across the
    O(pairs x kinds) dependence loop: write map, read maps, and their
    reversals for every computation (reversal of the same map used to be
    recomputed for every pair it appeared in)."""

    def __init__(self, comps):
        self.writes: Dict[str, Optional[Map]] = {}
        self.write_revs: Dict[str, Optional[Map]] = {}
        self.reads: Dict[str, List[Tuple[object, Map]]] = {}
        self.read_revs: Dict[str, List[Tuple[object, Map]]] = {}
        for c in comps:
            w = write_map(c)
            self.writes[c.name] = w
            self.write_revs[c.name] = w.reverse() if w is not None else None
            r = read_maps(c)
            self.reads[c.name] = r
            self.read_revs[c.name] = [(buf, m.reverse()) for buf, m in r]


def compute_dependences(fn, kinds=("flow", "anti", "output")
                        ) -> List[Dependence]:
    """All memory-based dependences of the function, with sources ordered
    before sinks in the original (declaration + domain-lexicographic)
    execution order."""
    comps = [c for c in fn.active_computations()
             if not isinstance(c, Operation)]
    acc = _AccessTables(comps)
    lex_cache: Dict[Tuple, Map] = {}
    deps: List[Dependence] = []
    decl_index = {c.name: i for i, c in enumerate(fn.computations)}
    for a in comps:
        for b in comps:
            if decl_index[a.name] > decl_index[b.name]:
                continue
            for kind in kinds:
                rel = _pair_dependence(a, b, kind, acc)
                for buffer, m in rel:
                    if a is b:
                        key = (tuple(a.var_names), a.name, m.space.params)
                        lex = lex_cache.get(key)
                        if lex is None:
                            lex = _lex_lt_relation(a.var_names, a.name,
                                                   m.space.params)
                            lex_cache[key] = lex
                        m = m.intersect(lex)
                    m = m.coalesce()
                    if not m.is_empty():
                        deps.append(Dependence(kind, a, b, buffer, m))
    return deps


def _pair_dependence(a, b, kind, acc: Optional[_AccessTables] = None
                     ) -> List[Tuple[object, Map]]:
    """Dependence relations a -> b of the given kind (a not after b)."""
    if acc is None:
        acc = _AccessTables([a] if a is b else [a, b])
    out: List[Tuple[object, Map]] = []
    wa = acc.writes[a.name]
    if kind == "flow":
        if wa is None:
            return out
        for buf, rm_rev in acc.read_revs[b.name]:
            if buf is a.get_buffer():
                out.append((buf, wa.apply_range(rm_rev)))
    elif kind == "anti":
        wb_rev = acc.write_revs[b.name]
        if wb_rev is None:
            return out
        for buf, rm in acc.reads[a.name]:
            if buf is b.get_buffer():
                out.append((buf, rm.apply_range(wb_rev)))
    elif kind == "output":
        wb_rev = acc.write_revs[b.name]
        if wa is None or wb_rev is None:
            return out
        if a.get_buffer() is b.get_buffer():
            out.append((a.get_buffer(), wa.apply_range(wb_rev)))
    return out


def dependence_distance(dep: Dependence,
                        param_vals: Dict[str, int] = ()) -> Optional[
                            Tuple[int, ...]]:
    """The constant (uniform) distance vector of a same-space dependence,
    or None when the dependence is not uniform.

    Classic use: a dependence with distance (1, -1) allows skewing; all
    positive leading entries means outer parallelism is illegal, etc.
    """
    if dep.source is not dep.sink and \
            len(dep.source.var_names) != len(dep.sink.var_names):
        return None
    from repro.isl.sample import sample as isl_sample
    n = len(dep.source.var_names)
    values = dict(param_vals)
    for bm in dep.relation.pieces:
        flat = bm.to_set()
        pt = isl_sample(flat, values)
        if pt is None:
            continue
        cand = tuple(pt[n + k] - pt[k] for k in range(n))
        # Verify uniformity: any pair deviating from cand in any dim?
        for other in dep.relation.pieces:
            for k in range(n):
                diff = (LinExpr.dim(OUT, k) - LinExpr.dim(IN, k)
                        - LinExpr.constant(cand[k]))
                for strict in (diff - 1, -diff - 1):
                    test = other.add_constraint(Constraint.ge(strict))
                    subst = test
                    for i, p in enumerate(test.space.params):
                        if p in values:
                            subst = subst.copy_with(constraints=[
                                c.substitute((PARAM, i), LinExpr.constant(
                                    values[p]))
                                for c in subst.constraints])
                    if not subst.is_empty():
                        return None
        return cand
    return None


# -- schedule legality ----------------------------------------------------------


def full_schedule_map(comp, beta: List[int], depth: int) -> Map:
    """Map: original domain -> full interleaved time vector
    [β0, t0, β1, t1, ..., t(depth-1), βdepth]; missing dynamic dims are
    padded with 0."""
    n_time = len(comp.time_names)
    out_names = []
    for k in range(depth):
        out_names.append(f"s{k}")
        out_names.append(f"d{k}")
    out_names.append(f"s{depth}")
    space = Space.map_space(tuple(comp.var_names), tuple(out_names),
                            comp.name, "T", comp.function.param_names)
    cons: List[Constraint] = []
    for k in range(depth + 1):
        cons.append(Constraint.eq(LinExpr.dim(OUT, 2 * k)
                                  - LinExpr.constant(beta[k])))
    for k in range(depth):
        if k >= n_time:
            cons.append(Constraint.eq(LinExpr.dim(OUT, 2 * k + 1)))
    base = BasicMap(space, cons)
    m = Map.from_basic(base)
    # Tie dynamic dims to the computation's forward schedule.
    fwd = comp.forward_schedule()  # domain -> time dims
    pieces = []
    for bm in fwd.pieces:
        # Rebuild fwd pieces in the full-time space.
        remap = {(OUT, k): (OUT, 2 * k + 1) for k in range(n_time)}
        cons2 = [c.remap(remap) for c in bm.constraints]
        pieces.append(BasicMap(space, cons2, bm.n_div))
    fwd_full = Map(pieces, space)
    return m.intersect(fwd_full)


def _time_violation(rel: Map, beta_src: Sequence[int],
                    beta_snk: Sequence[int]) -> bool:
    """True if rel (time_p -> time_q) contains a pair with
    time_q <_lex time_p: the two vectors agree before some position k
    and time_q[k] < time_p[k].  Pairs with equal time vectors are not
    reported: β separates distinct computations, and within one
    computation only a non-injective schedule could produce them.

    ``beta_src``/``beta_snk`` are the static (β) entries of the source
    and sink: positions 2k of the interleaved ``[β0, d0, β1, ...]``
    vector hold the constants ``beta_src[k]`` and ``beta_snk[k]`` on
    every pair, so two integers decide each static position without an
    emptiness test.  Equal β agree trivially and cannot be strict; a
    source β above the sink's makes the position a violation exactly
    when the prefix-equal system is non-empty; either way, unequal β
    end the scan, since every later position needs them equal.
    """
    n_out = 2 * len(beta_src) - 1
    for bm in rel.pieces:
        prefix: List[Constraint] = []
        for k in range(n_out):
            if k % 2 == 0:
                b_src, b_snk = beta_src[k // 2], beta_snk[k // 2]
                if b_src != b_snk:
                    if b_src > b_snk and \
                            not bm.add_constraints(prefix).is_empty():
                        return True
                    break
            elif not bm.add_constraints(prefix + [Constraint.ge(
                    LinExpr.dim(IN, k) - LinExpr.dim(OUT, k) - 1)]
                    ).is_empty():
                return True
            prefix.append(Constraint.eq(LinExpr.dim(OUT, k)
                                        - LinExpr.dim(IN, k)))
    return False


#: Tag kinds whose loops execute iterations concurrently and therefore
#: must not carry a dependence (paper Table II).
RACE_CHECKED_TAGS = ("parallel", "vector", "distributed")


class DependenceAnalysis:
    """The dependence analysis of one schedule of ``fn``, shared by
    every legality and race question asked about that schedule.

    It holds the dependences, the β vectors and depth, each
    computation's full schedule map and each dependence's time-space
    relation, all built on first use.  ``deps`` may be passed in
    precomputed: dependences depend only on domains, accesses and
    buffers, which no schedule command changes, so a search computes
    them once and builds one analysis per candidate schedule.

    Once :meth:`check_legality` has passed, the race check tests only
    the forward direction of each dependence it proved: the backward
    direction at a dynamic level is exactly a legality test that has
    already come back empty.
    """

    def __init__(self, fn, deps: Optional[List[Dependence]] = None):
        self.fn = fn
        if deps is not None:
            self.deps = deps
        self._sched: Dict[str, Map] = {}
        self._sched_rev: Dict[str, Map] = {}
        self._rels: Dict[int, Map] = {}
        #: ids of the dependences a passing legality check proved.
        self._proven: frozenset = frozenset()

    @cached_property
    def deps(self) -> List[Dependence]:
        return compute_dependences(self.fn)

    @cached_property
    def beta(self) -> Dict[str, List[int]]:
        return self.fn.resolve_order()

    @cached_property
    def depth(self) -> int:
        return self.fn.max_depth()

    def schedule_map(self, comp) -> Map:
        """``comp``'s domain -> full interleaved time vector."""
        m = self._sched.get(comp.name)
        if m is None:
            m = full_schedule_map(comp, self.beta[comp.name], self.depth)
            self._sched[comp.name] = m
            self._sched_rev[comp.name] = m.reverse()
        return m

    def relation(self, dep: Dependence) -> Map:
        """``dep`` as a relation between full time vectors."""
        rel = self._rels.get(id(dep))
        if rel is None:
            self.schedule_map(dep.source)
            rel = (self._sched_rev[dep.source.name]
                   .apply_range(dep.relation)
                   .apply_range(self.schedule_map(dep.sink)))
            self._rels[id(dep)] = rel
        return rel

    def check_legality(self) -> int:
        """Raise IllegalScheduleError if the schedule reorders any
        dependence (paper Section II-c / V); returns the number of
        dependences checked.

        Computations nested by ``compute_at`` execute *redundantly* (the
        overlapped tiling of Section III-C): every copy recomputes the
        same value, so the write-after-read hazards between their copies
        and their consumers are benign and are not checked (memory-based
        analysis cannot distinguish a benign recompute from a real
        overwrite).
        """
        deps = [d for d in self.deps
                if d.source.anchor is None and d.sink.anchor is None]
        for dep in deps:
            if _time_violation(self.relation(dep),
                               self.beta[dep.source.name],
                               self.beta[dep.sink.name]):
                raise IllegalScheduleError(
                    f"schedule violates {dep.kind} dependence "
                    f"{dep.source.name} -> {dep.sink.name} on buffer "
                    f"{dep.buffer.name}")
        self._proven = frozenset(id(d) for d in deps)
        return len(deps)

    def _carries(self, dep: Dependence, level: int) -> bool:
        """Whether ``dep`` has a pair equal on every time position
        before dynamic dim ``level`` and different at it (position
        ``2*level+1`` of the interleaved vector).  β entries that differ
        at or before ``level`` order every pair statically, so no pair
        can share the prefix."""
        beta_src = self.beta[dep.source.name]
        beta_snk = self.beta[dep.sink.name]
        if beta_src[:level + 1] != beta_snk[:level + 1]:
            return False
        pos = 2 * level + 1
        diff = LinExpr.dim(OUT, pos) - LinExpr.dim(IN, pos)
        stricts = [Constraint.ge(diff - 1)]
        if id(dep) not in self._proven:
            stricts.append(Constraint.ge(-diff - 1))
        prefix = [Constraint.eq(LinExpr.dim(OUT, j) - LinExpr.dim(IN, j))
                  for j in range(pos)]
        return any(not bm.add_constraints(prefix + [strict]).is_empty()
                   for bm in self.relation(dep).pieces
                   for strict in stricts)

    def carried(self, comp, level: int) -> List[Dependence]:
        """Dependences of ``comp`` carried by its loop ``level``."""
        return [dep for dep in self.deps
                if (dep.source is comp or dep.sink is comp)
                and self._carries(dep, level)]

    def check_races(self, kinds: Sequence[str] = RACE_CHECKED_TAGS) -> int:
        """The race detector: raise IllegalScheduleError if any loop
        level tagged with one of ``kinds`` carries a dependence; returns
        the number of tagged levels checked."""
        tagged = []
        for comp in self.fn.active_computations():
            if isinstance(comp, Operation):
                continue
            for level, tag in sorted(comp.tags.items()):
                if tag.kind in kinds and level < len(comp.time_names):
                    tagged.append((comp, level, tag))
        for comp, level, tag in tagged:
            carried = self.carried(comp, level)
            if carried:
                dep = carried[0]
                raise IllegalScheduleError(
                    f"cannot execute loop {comp.time_names[level]!r} "
                    f"(level {level}) of {comp.name!r} as {tag.kind}: it "
                    f"carries a {dep.kind} dependence "
                    f"{dep.source.name} -> {dep.sink.name} on buffer "
                    f"{dep.buffer.name} (a data race on concurrent "
                    f"iterations)")
        return len(tagged)


def check_schedule_legality(fn) -> int:
    """Raise IllegalScheduleError if the current schedule reorders any
    dependence; returns the number of dependences checked (see
    :meth:`DependenceAnalysis.check_legality`)."""
    return DependenceAnalysis(fn).check_legality()


def carried_at_level(fn, comp, level: int) -> List[Dependence]:
    """Dependences carried by loop ``level`` of ``comp`` (same values of
    all outer dims, different at ``level``).  A loop can be parallelized,
    vectorized or distributed only if this is empty (paper Table II)."""
    return DependenceAnalysis(fn).carried(comp, level)


def check_parallel_legality(fn, kinds: Sequence[str] = RACE_CHECKED_TAGS
                            ) -> int:
    """The race detector: verify no dependence is carried at any loop
    level tagged ``parallel``/``vector``/``distributed``.

    Running iterations of such a loop concurrently reorders the
    statement instances along that dimension, so a dependence carried
    there is a data race on real hardware (Section V / Table II: "a loop
    can be parallelized only if it does not carry any dependence").
    Raises :class:`IllegalScheduleError` naming the computation, the
    loop level, and the violating dependence; returns the number of
    tagged levels checked.
    """
    return DependenceAnalysis(fn).check_races(kinds)
