"""Trace-driven cache simulation: the analytical model's ground truth.

The CPU cost model (:mod:`repro.machine.cpu_model`) *estimates* cache
behaviour from access functions; this module *measures* it, by walking
the generated loop AST with concrete parameters, emitting the exact
address trace of every load/store, and driving a set-associative LRU
cache hierarchy.  It is used by the validation tests (and the locality
ablation) to confirm that the schedules the paper credits with locality
improvements — tiling, fusion, compute_at — really do cut misses, on
this codebase's actual generated loop nests, not just in the model.

Only practical for small problem sizes (the trace is explicit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.codegen.ast import Block, Loop, Stmt
from repro.core.computation import Operation
from repro.isl.linexpr import OUT, PARAM

from .cpu_model import CpuCostModel


class SetAssociativeCache:
    """A set-associative cache with LRU replacement."""

    def __init__(self, size_bytes: int, line_bytes: int = 64,
                 ways: int = 8):
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = max(1, size_bytes // (line_bytes * ways))
        self.sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """True on hit; updates LRU state either way."""
        line = addr // self.line_bytes
        idx = line % self.n_sets
        ways = self.sets[idx]
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.hits += 1
            return True
        ways.append(line)
        if len(ways) > self.ways:
            ways.pop(0)
        self.misses += 1
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class TraceStats:
    l1: SetAssociativeCache
    l2: SetAssociativeCache
    total_accesses: int = 0

    @property
    def l1_miss_ratio(self) -> float:
        return self.l1.miss_ratio

    def memory_cycles(self, l1_cycles=4.0, l2_cycles=12.0,
                      mem_cycles=200.0) -> float:
        """Aggregate latency of the trace under the simulated hierarchy."""
        return (self.l1.hits * l1_cycles
                + self.l2.hits * l2_cycles
                + self.l2.misses * mem_cycles)


class TraceSimulator(CpuCostModel):
    """Reuses the cost model's access extraction, but walks the loops
    concretely and feeds every address through a simulated hierarchy."""

    def __init__(self, fn, params: Dict[str, int],
                 l1_bytes: int = 4 * 1024, l2_bytes: int = 64 * 1024,
                 line_bytes: int = 64, max_accesses: int = 2_000_000):
        super().__init__(fn, params)
        self.stats = TraceStats(
            l1=SetAssociativeCache(l1_bytes, line_bytes),
            l2=SetAssociativeCache(l2_bytes, line_bytes))
        self.max_accesses = max_accesses
        self._bases: Dict[int, int] = {}
        self._next_base = 0
        self._access_cache: Dict[str, list] = {}

    # -- address space -----------------------------------------------------

    def _base(self, buffer) -> int:
        key = id(buffer)
        if key not in self._bases:
            self._bases[key] = self._next_base
            elems = 1
            for s in self._buffer_shape(buffer):
                elems *= s
            # Page-align each buffer to keep them apart.
            size = elems * buffer.dtype.bits // 8
            self._next_base += ((size + 4095) // 4096) * 4096
        return self._bases[key]

    # -- trace generation ------------------------------------------------------

    def run(self) -> TraceStats:
        values = {(PARAM, i): self.params[p]
                  for i, p in enumerate(self.fn.param_names)}
        self._walk(self.ast, values)
        return self.stats

    def _walk(self, node, values) -> None:
        if self.stats.total_accesses >= self.max_accesses:
            return
        if isinstance(node, Block):
            for child in node.children:
                self._walk(child, values)
            return
        if isinstance(node, Stmt):
            self._touch(node, values)
            return
        assert isinstance(node, Loop)
        lo = self._bound_at(node.lowers, values, True)
        hi = self._bound_at(node.uppers, values, False)
        for v in range(lo, hi + 1):
            values[(OUT, node.level)] = v
            self._walk(node.body, values)
            if self.stats.total_accesses >= self.max_accesses:
                break
        values.pop((OUT, node.level), None)

    def _bound_at(self, groups, values, is_lower: bool) -> int:
        outer = None
        for g in groups:
            inner = None
            for coeff, e in g:
                raw = int(e.evaluate(values))
                v = -((-raw) // coeff) if is_lower else raw // coeff
                inner = v if inner is None else (
                    max(inner, v) if is_lower else min(inner, v))
            outer = inner if outer is None else (
                min(outer, inner) if is_lower else max(outer, inner))
        return int(outer)

    def _touch(self, stmt: Stmt, values) -> None:
        comp = stmt.comp
        if isinstance(comp, Operation) or comp.expr is None:
            return
        for guard in stmt.guards:
            if not guard.satisfied_by(values):
                return
        if comp.name not in self._access_cache:
            self._access_cache[comp.name] = self._collect_accesses(comp)
        for buffer, flat_le, elem_bytes in self._access_cache[comp.name]:
            addr = self._base(buffer) + int(flat_le.evaluate(values)
                                            * elem_bytes)
            if not self.stats.l1.access(addr):
                self.stats.l2.access(addr)
            self.stats.total_accesses += 1


def simulate_trace(fn, params: Dict[str, int], **kwargs) -> TraceStats:
    """Convenience wrapper: trace ``fn`` at ``params`` and return stats."""
    return TraceSimulator(fn, params, **kwargs).run()
