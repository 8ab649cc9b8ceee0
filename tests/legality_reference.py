"""The per-level legality and race checks as they were before
:class:`repro.core.deps.DependenceAnalysis`: every time position of the
interleaved ``[β0, d0, β1, ...]`` vector, static or dynamic, is decided
by an emptiness test, and each check computes its own dependences.

Kept here only as the reference the shared analysis is tested against
(same verdicts, same :class:`IllegalScheduleError` messages).
Dependences are looked up through the ``repro.core.deps`` module so a
test can count the calls.
"""

from typing import Dict, List, Optional, Sequence

import repro.core.deps as deps_mod
from repro.core.computation import Operation
from repro.core.deps import RACE_CHECKED_TAGS, full_schedule_map
from repro.core.errors import IllegalScheduleError
from repro.isl import IN, OUT, Constraint, LinExpr, Map


def _time_violation(rel: Map, n_out: int) -> bool:
    for bm in rel.pieces:
        for k in range(n_out):
            cons = [Constraint.eq(LinExpr.dim(OUT, j) - LinExpr.dim(IN, j))
                    for j in range(k)]
            cons.append(Constraint.ge(LinExpr.dim(IN, k)
                                      - LinExpr.dim(OUT, k) - 1))
            if not bm.add_constraints(cons).is_empty():
                return True
    return False


def check_schedule_legality(fn) -> int:
    deps = [d for d in deps_mod.compute_dependences(fn)
            if d.source.anchor is None and d.sink.anchor is None]
    if not deps:
        return 0
    beta = fn.resolve_order()
    depth = fn.max_depth()
    n_out = 2 * depth + 1
    sched: Dict[str, Map] = {}
    sched_rev: Dict[str, Map] = {}
    for dep in deps:
        for comp in (dep.source, dep.sink):
            if comp.name not in sched:
                sched[comp.name] = full_schedule_map(
                    comp, beta[comp.name], depth)
                sched_rev[comp.name] = sched[comp.name].reverse()
        rel = (sched_rev[dep.source.name]
               .apply_range(dep.relation)
               .apply_range(sched[dep.sink.name]))
        if _time_violation(rel, n_out):
            raise IllegalScheduleError(
                f"schedule violates {dep.kind} dependence "
                f"{dep.source.name} -> {dep.sink.name} on buffer "
                f"{dep.buffer.name}")
    return len(deps)


def carried_at_level(fn, comp, level: int, deps=None, beta=None,
                     depth: Optional[int] = None,
                     sched: Optional[Dict[str, Map]] = None,
                     rels: Optional[Dict[int, Map]] = None) -> List:
    if deps is None:
        deps = deps_mod.compute_dependences(fn)
    if beta is None:
        beta = fn.resolve_order()
    if depth is None:
        depth = fn.max_depth()
    if sched is None:
        sched = {}
    carried = []

    def sched_map(c) -> Map:
        m = sched.get(c.name)
        if m is None:
            m = full_schedule_map(c, beta[c.name], depth)
            sched[c.name] = m
        return m

    for dep in deps:
        if dep.source is not comp and dep.sink is not comp:
            continue
        rel = rels.get(id(dep)) if rels is not None else None
        if rel is None:
            rel = (sched_map(dep.source).reverse()
                   .apply_range(dep.relation)
                   .apply_range(sched_map(dep.sink)))
            if rels is not None:
                rels[id(dep)] = rel
        pos = 2 * level + 1
        found = False
        for bm in rel.pieces:
            cons = [Constraint.eq(LinExpr.dim(OUT, j) - LinExpr.dim(IN, j))
                    for j in range(pos)]
            for strict in (1, -1):
                diff = (LinExpr.dim(OUT, pos) - LinExpr.dim(IN, pos)) * strict
                test = bm.add_constraints(cons + [Constraint.ge(diff - 1)])
                if not test.is_empty():
                    found = True
                    break
            if found:
                break
        if found:
            carried.append(dep)
    return carried


def check_parallel_legality(fn, kinds: Sequence[str] = RACE_CHECKED_TAGS
                            ) -> int:
    tagged = []
    for comp in fn.active_computations():
        if isinstance(comp, Operation):
            continue
        for level, tag in sorted(comp.tags.items()):
            if tag.kind in kinds and level < len(comp.time_names):
                tagged.append((comp, level, tag))
    if not tagged:
        return 0
    deps = deps_mod.compute_dependences(fn)
    beta = fn.resolve_order()
    depth = fn.max_depth()
    sched: Dict[str, Map] = {}
    rels: Dict[int, Map] = {}
    for comp, level, tag in tagged:
        carried = carried_at_level(fn, comp, level, deps=deps, beta=beta,
                                   depth=depth, sched=sched, rels=rels)
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


def verdict(check, *args, **kwargs) -> str:
    """A check's outcome as a comparable string: its return value, or
    the message of the IllegalScheduleError it raised."""
    try:
        return f"ok {check(*args, **kwargs)}"
    except IllegalScheduleError as err:
        return f"illegal: {err}"
