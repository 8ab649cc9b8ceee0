"""Backend-neutral helpers shared by every compile target.

They are target independent: argument-kind inference and buffer
collection read only Layer I/III information, and Python-source binding
is shared by every exec-based backend.  Every backend imports them from
here, never through another backend.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.core.buffer import ArgKind, Buffer
from repro.core.computation import Input, Operation
from repro.core.function import Function

#: Environment override for every runtime timeout (seconds) — lets CI
#: tighten or loosen deadlines without touching compile options.
TIMEOUT_ENV = "TIRAMISU_TIMEOUT"

#: Per-use defaults when neither the ``timeout`` option nor the env
#: var is set: a blocking receive and the whole-run thread join.
DEFAULT_RECV_TIMEOUT = 30.0
DEFAULT_JOIN_TIMEOUT = 120.0


def resolve_timeout(value: Optional[float] = None,
                    default: Optional[float] = None) -> Optional[float]:
    """One timeout, three priorities: the validated ``timeout`` compile
    or call option, then the ``TIRAMISU_TIMEOUT`` environment variable,
    then ``default`` (which may be None — "no deadline").

    Zero, negative, boolean and non-numeric values raise ValueError —
    for the env var too, naming ``TIRAMISU_TIMEOUT`` so a broken CI
    environment fails loudly at option-normalization time instead of
    deep inside the runtime."""
    source = "timeout"
    if value is None:
        env = os.environ.get(TIMEOUT_ENV, "").strip()
        if env:
            value = env
            source = TIMEOUT_ENV
        else:
            return None if default is None else float(default)
    if isinstance(value, bool):
        raise ValueError(
            f"{source} must be a positive number, got {value!r}")
    try:
        t = float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive number, got {value!r}") from None
    if t <= 0:
        raise ValueError(f"{source} must be a positive number, got {value!r}")
    return t


def infer_argument_kinds(fn: Function) -> None:
    """Mark buffers: inputs keep INPUT; computations nobody consumes
    become OUTPUT arguments (named after the computation)."""
    from repro.ir.expr import accesses_in
    consumed = set()
    consumed_buffers = set()
    for c in fn.computations:
        if isinstance(c, Operation):
            src = c.payload.get("src")
            if src is not None:
                consumed_buffers.add(id(src))
            continue
        if c.expr is None:
            continue
        for acc in accesses_in(c.expr):
            producer = acc.computation
            if producer is c:
                continue
            if producer.get_buffer() is c.get_buffer():
                # Same-buffer access (reduction clones, separated
                # partial tiles): not a real consumption.
                continue
            consumed.add(producer.name)
    for c in fn.active_computations():
        if isinstance(c, (Input, Operation)):
            continue
        buf = c.get_buffer()
        if c.name not in consumed and id(buf) not in consumed_buffers \
                and buf.kind == ArgKind.TEMPORARY:
            buf.kind = ArgKind.OUTPUT
            if buf.name == f"_{c.name}_b":
                buf.name = c.name


def collect_buffers(fn: Function) -> List[Buffer]:
    """Every buffer the generated code touches, in first-use order."""
    seen: Dict[int, Buffer] = {}
    order: List[Buffer] = []
    for c in fn.computations:
        if isinstance(c, Operation):
            for key in ("buffer", "src", "dst"):
                b = c.payload.get(key)
                if isinstance(b, Buffer) and id(b) not in seen:
                    seen[id(b)] = b
                    order.append(b)
            continue
        if c.inlined:
            continue
        candidates = [c.get_buffer()]
        for shared, *_ in c.cached_reads.values():
            candidates.append(shared)
        if c.cached_store is not None:
            candidates.append(c.cached_store[0])
        for b in candidates:
            if id(b) not in seen:
                seen[id(b)] = b
                order.append(b)
    return order


def bind_python_kernel(fn: Function, source: str, tag: str):
    """exec() emitted Python source and return its ``_kernel`` entry."""
    namespace: Dict[str, object] = {}
    code = compile(source, f"<{tag}:{fn.name}>", "exec")
    exec(code, namespace)
    return namespace["_kernel"]
