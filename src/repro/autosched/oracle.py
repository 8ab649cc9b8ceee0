"""Cost oracles: how the autoscheduler ranks candidate plans.

The :class:`CostOracle` protocol is one method — ``score(fn, plan)``,
lower is better, with the contract that ``fn`` arrives pristine and is
returned pristine (oracles apply/undo the plan themselves).  ``rank``
batches scoring and sorts deterministically (serialized plan as the
tie-break, so equal-cost plans order stably across runs).

Two implementations span the speed/fidelity axis:

* :class:`ModelOracle` — the fast inner-loop ranker: applies the plan,
  runs the analytical :class:`~repro.machine.cpu_model.CpuCostModel`,
  undoes.  Milliseconds per plan; thousands of probes are fine.  Its
  ``scale`` constant converts modeled to wall-clock seconds and is
  fitted from measured runs by
  :func:`repro.evaluation.calibration.fit_time_scale`.
* :class:`MeasuredOracle` — ground truth for finalists: batch-compiles
  every plan through the driver's ``autoschedule`` option (deduped and
  disk-cache-warm via :func:`~repro.driver.batch.compile_batch`) and
  times real executions.  Seconds per plan; use for top-k re-ranking.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.events import record

from .plan import SchedulePlan


class CostOracle:
    """Protocol: rank plans by estimated cost in seconds (lower wins)."""

    name: str = "oracle"

    def score(self, fn, plan: SchedulePlan) -> float:
        """Cost of ``fn`` under ``plan``; must leave ``fn`` pristine."""
        raise NotImplementedError

    def rank(self, fn, plans: List[SchedulePlan]
             ) -> List[Tuple[SchedulePlan, float]]:
        """(plan, cost) ascending by cost; deterministic tie-break on
        the serialized plan."""
        scored = [(plan, self.score(fn, plan)) for plan in plans]
        scored.sort(key=lambda pc: (pc[1], pc[0].serialize()))
        return scored

    def __repr__(self):
        return f"<{type(self).__name__}>"


class ModelOracle(CostOracle):
    """Analytical ranking via the CPU cost model.

    The score is the sum of the model's ``per_computation_seconds``
    (equal to the modeled kernel seconds after the bandwidth-floor
    normalization), times ``scale`` — the measured-per-modeled fit from
    :func:`repro.evaluation.calibration.fit_time_scale` (1.0 = raw
    model units, fine for pure ranking).
    """

    name = "model"

    def __init__(self, params: Optional[Dict[str, int]] = None,
                 machine=None, packed_buffers=(),
                 num_threads: Optional[int] = None, scale: float = 1.0):
        self.params = dict(params or {})
        self.machine = machine
        self.packed_buffers = list(packed_buffers)
        self.num_threads = num_threads
        self.scale = float(scale)

    def score(self, fn, plan: SchedulePlan) -> float:
        from repro.machine import CpuCostModel
        applied = plan.copy().apply(fn)
        try:
            kwargs = dict(packed_buffers=self.packed_buffers,
                          num_threads=self.num_threads)
            if self.machine is not None:
                kwargs["machine"] = self.machine
            report = CpuCostModel(fn, self.params, **kwargs).estimate()
            modeled = sum(report.per_computation_seconds.values())
            return (modeled or report.seconds) * self.scale
        finally:
            applied.undo()


class MeasuredOracle(CostOracle):
    """Ground-truth ranking: compile each plan through the driver's
    ``autoschedule`` option and time real runs.

    Plans are batch-compiled (:func:`~repro.driver.batch.compile_batch`:
    duplicates deduped by fingerprint, artifacts warm from the disk tier
    across search runs) and each kernel runs ``repeats`` times on fresh
    input copies; the score is the minimum wall-clock, the standard
    noise-resistant estimator.
    """

    name = "measured"

    def __init__(self, params: Dict[str, int], make_inputs=None,
                 inputs: Optional[Dict[str, np.ndarray]] = None,
                 repeats: int = 3, target: str = "cpu", seed: int = 0,
                 num_threads: Optional[int] = 1,
                 compile_options: Optional[Dict[str, object]] = None):
        if make_inputs is None and inputs is None:
            raise ValueError(
                "MeasuredOracle needs make_inputs= (a KernelBundle-style "
                "builder) or explicit inputs=")
        self.params = dict(params)
        self.make_inputs = make_inputs
        self.inputs = inputs
        self.repeats = int(repeats)
        self.target = target
        self.seed = seed
        self.num_threads = num_threads
        self.compile_options = dict(compile_options or {})

    def _input_arrays(self) -> Dict[str, np.ndarray]:
        if self.inputs is not None:
            return self.inputs
        rng = np.random.default_rng(self.seed)
        self.inputs = self.make_inputs(self.params, rng)
        return self.inputs

    def _time_kernel(self, kernel, inputs: Dict[str, np.ndarray]) -> float:
        best = float("inf")
        for _ in range(max(1, self.repeats)):
            args = {k: np.copy(v) for k, v in inputs.items()}
            t0 = time.perf_counter()
            kernel(**args, **self.params)
            best = min(best, time.perf_counter() - t0)
        return best

    def score(self, fn, plan: SchedulePlan) -> float:
        return self.rank(fn, [plan])[0][1]

    def rank(self, fn, plans: List[SchedulePlan]
             ) -> List[Tuple[SchedulePlan, float]]:
        from repro.driver import CompileRequest, compile_batch
        if not plans:
            return []
        inputs = self._input_arrays()
        options = dict(self.compile_options)
        options["num_threads"] = self.num_threads
        requests = [CompileRequest(fn, target=self.target,
                                   options=dict(options,
                                                autoschedule=p.serialize()))
                    for p in plans]
        kernels = compile_batch(requests, target=self.target)
        record("autosched.measured", n=len(plans))
        scored = [(plan, self._time_kernel(kernel, inputs))
                  for plan, kernel in zip(plans, kernels)]
        scored.sort(key=lambda pc: (pc[1], pc[0].serialize()))
        return scored
