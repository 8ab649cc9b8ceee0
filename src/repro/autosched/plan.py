"""Schedule plans: ordered, undoable, serializable action sequences.

A :class:`SchedulePlan` is the currency of the autoscheduler: search
strategies build plans, the :class:`~repro.autosched.oracle.CostOracle`
ranks them, and the compile driver accepts one through the
``autoschedule`` option (the serialized form is part of the compile
fingerprint, so auto-scheduled kernels cache correctly — see
docs/autoscheduler.md).

Apply/undo is exact, not approximate: every ``apply``/``push`` first
captures a :meth:`~repro.core.function.Function.schedule_snapshot`, so
``undo``/``pop`` restore the function's schedule state byte-identically
(property-tested against emitted source in tests/test_schedule_plan.py).
``apply`` is atomic — if any action in the sequence fails, the function
is rolled back to its pre-apply state before the error propagates.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.errors import TiramisuError

from .actions import ScheduleAction

#: Schema version of the serialized form; bump on incompatible change.
PLAN_FORMAT_VERSION = 1


class SchedulePlanError(TiramisuError, ValueError):
    """Misuse of a plan's apply/undo lifecycle, or a malformed
    serialized plan."""


class SchedulePlan:
    """An ordered sequence of :class:`ScheduleAction`\\ s.

    Lifecycle: a plan is either *unapplied* or *applied to exactly one
    function*.  ``apply(fn)`` runs every action in order (atomically);
    ``undo()`` restores the function; ``push(fn, action)``/``pop()``
    grow and shrink an applied plan one action at a time (the greedy /
    beam building blocks).  ``serialize()``/``deserialize()`` give a
    canonical JSON round-trip — byte-equal strings iff the plans are
    equal — usable directly as a cache-key component.
    """

    def __init__(self, actions: Sequence[ScheduleAction] = ()):
        self.actions: List[ScheduleAction] = list(actions)
        self._snapshots: List[Dict[str, object]] = []
        self._applied_to = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def applied(self) -> bool:
        return self._applied_to is not None

    def apply(self, fn) -> "SchedulePlan":
        """Apply every action to ``fn`` in order.  Atomic: a failing
        action rolls the function back before re-raising."""
        if self._applied_to is not None:
            raise SchedulePlanError(
                "plan is already applied; undo() it before re-applying")
        snapshots: List[Dict[str, object]] = []
        try:
            for action in self.actions:
                snapshots.append(fn.schedule_snapshot())
                action.apply(fn)
        except Exception:
            if snapshots:
                fn.restore_schedule(snapshots[0])
            raise
        self._snapshots = snapshots
        self._applied_to = fn
        return self

    def undo(self, fn=None) -> "SchedulePlan":
        """Restore the applied-to function to its pre-apply schedule."""
        if self._applied_to is None:
            raise SchedulePlanError("plan is not applied; nothing to undo")
        if fn is not None and fn is not self._applied_to:
            raise SchedulePlanError(
                f"plan was applied to {self._applied_to.name!r}, "
                f"cannot undo against {fn.name!r}")
        if self._snapshots:
            self._applied_to.restore_schedule(self._snapshots[0])
        self._snapshots = []
        self._applied_to = None
        return self

    def push(self, fn, action: ScheduleAction) -> "SchedulePlan":
        """Apply one more action (incremental build).  The function is
        untouched if the action fails — even when the failing command
        mutated partway (tile = split+split+interchange)."""
        if self._applied_to is None and self.actions:
            raise SchedulePlanError(
                "push() on an unapplied non-empty plan; apply() it first")
        if self._applied_to is not None and fn is not self._applied_to:
            raise SchedulePlanError(
                f"plan is applied to {self._applied_to.name!r}, "
                f"cannot push against {fn.name!r}")
        snapshot = fn.schedule_snapshot()
        try:
            action.apply(fn)
        except Exception:
            fn.restore_schedule(snapshot)
            raise
        self.actions.append(action)
        self._snapshots.append(snapshot)
        self._applied_to = fn
        return self

    def pop(self, fn=None) -> ScheduleAction:
        """Undo and drop the most recent action; returns it."""
        if not self.actions or self._applied_to is None:
            raise SchedulePlanError("pop() on an empty or unapplied plan")
        if fn is not None and fn is not self._applied_to:
            raise SchedulePlanError(
                f"plan is applied to {self._applied_to.name!r}, "
                f"cannot pop against {fn.name!r}")
        action = self.actions.pop()
        snapshot = self._snapshots.pop()
        self._applied_to.restore_schedule(snapshot)
        if not self._snapshots:
            self._applied_to = None
        return action

    # -- derivation --------------------------------------------------------

    def copy(self) -> "SchedulePlan":
        """A fresh unapplied plan with the same actions."""
        return SchedulePlan(self.actions)

    def extended(self, action: ScheduleAction) -> "SchedulePlan":
        """A fresh unapplied plan with one more action appended."""
        return SchedulePlan(self.actions + [action])

    # -- serialization -----------------------------------------------------

    def serialize(self) -> str:
        """Canonical JSON: sorted keys, no whitespace.  Equal plans
        serialize to byte-equal strings, so this doubles as the plan's
        identity for dedup and as the compile-cache key component."""
        return json.dumps(
            {"version": PLAN_FORMAT_VERSION,
             "actions": [a.to_json() for a in self.actions]},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def deserialize(cls, text: str) -> "SchedulePlan":
        try:
            data = json.loads(text)
        except (TypeError, ValueError) as err:
            raise SchedulePlanError(
                f"not a serialized SchedulePlan: {err}") from None
        if not isinstance(data, dict):
            raise SchedulePlanError(
                f"serialized plan must be a JSON object, got "
                f"{type(data).__name__}")
        version = data.get("version")
        if version != PLAN_FORMAT_VERSION:
            raise SchedulePlanError(
                f"unsupported plan format version {version!r} "
                f"(this build reads version {PLAN_FORMAT_VERSION})")
        raw = data.get("actions")
        if not isinstance(raw, list):
            raise SchedulePlanError("serialized plan needs an action list")
        return cls([ScheduleAction.from_json(d) for d in raw])

    # -- sugar -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[ScheduleAction]:
        return iter(self.actions)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SchedulePlan)
                and self.actions == other.actions)

    def __hash__(self):
        return hash(self.serialize())

    def __repr__(self):
        state = "applied" if self.applied else "unapplied"
        return f"<SchedulePlan {len(self.actions)} actions, {state}>"
