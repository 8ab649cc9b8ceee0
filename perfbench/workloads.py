"""The workload registry and what every workload shares.

Each workload is a closed loop driven from this one process with at
most ``nproc`` requests in flight, passes ``num_threads=nproc``
explicitly (so the race checker's verdict does not depend on a
default), and checks every output against the kernel's NumPy
``reference`` with the tolerance ``KernelBundle.verify`` uses.
"""

from __future__ import annotations

import importlib
import os
import random
import time
from typing import Dict, Optional

from catalogue import PAPER_KERNELS, paper_bundle
from harness import Timed, copies, outputs_match, reason_of, \
    reference_seconds

NPROC = os.cpu_count() or 1


_MODULES = {"compile": "wl_compile", "execute": "wl_execute",
            "tune": "wl_tune", "service": "wl_service"}


def import_program() -> None:
    """Import every layer a workload may touch, so that import time is
    charged to ``setup_s`` once and not to the first timed operation."""
    for module in ("numpy", "repro", "repro.kernels", "repro.evaluation",
                   "repro.evaluation.schedules", "repro.evaluation.parallel",
                   "repro.driver", "repro.codegen", "repro.core.deps",
                   "repro.backends.cpu", "repro.backends.c",
                   "repro.backends.parallel", "repro.runtime",
                   "repro.autosched", "repro.autosched.search",
                   "repro.machine", "repro.isl", "repro.obs"):
        importlib.import_module(module)


def get(name: str, **kwargs) -> "Workload":
    module = importlib.import_module(_MODULES[name])
    return module.WORKLOAD(**kwargs)


class Workload:
    """``setup`` runs ``SETUP_REPEATS`` times (the last state is kept);
    ``measure`` runs the timed loop; ``close`` stops every process the
    run started and waits for it."""

    workers = NPROC

    def __init__(self, tiny: bool, seed: int, tmp_root: str):
        self.tiny = tiny
        self.seed = seed
        self.tmp_root = tmp_root
        self.rng = random.Random(seed)
        self._dirs = 0
        #: Every reference-loop time measured around a timed operation.
        self.speed: list = []

    def timed(self, every_core: bool = False,
              every: Optional[float] = None) -> Timed:
        """A timer for one operation; ``every_core`` probes host speed
        on every core, for operations that also run in pool workers;
        ``every`` samples it inside long operations too."""
        return Timed(self.speed, every_core_speed if every_core else None,
                     every)

    @staticmethod
    def more(done: int, start: float, seconds: float, traced: bool) -> bool:
        """Whether to start another whole round: until ``seconds`` have
        passed, and at least one round (two when traced, so traced and
        untraced rounds alternate)."""
        return done < (2 if traced else 1) \
            or time.perf_counter() - start < seconds

    def fresh_dir(self, label: str) -> str:
        """A new empty directory inside the run's private temp root."""
        self._dirs += 1
        path = os.path.join(self.tmp_root, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def paper_data(self) -> Dict[str, tuple]:
        """kernel -> (test_params, seeded inputs, reference outputs) for
        the 14 paper kernels."""
        data = {}
        for index, name in enumerate(PAPER_KERNELS):
            bundle = paper_bundle(name, scheduled=False)
            params = dict(bundle.test_params)
            data[name] = (params, *self.inputs(bundle, params, index))
        return data

    def check_runs(self, kernel, entry, name, ledger, samples, calls: int,
                   weight: int = 1) -> None:
        """Run a produced kernel ``calls`` times at its ``test_params``
        (``entry`` from :meth:`paper_data`), checking every output; a
        failure counts once per request (``weight``) that received the
        kernel."""
        params, inputs, expected = entry
        for _ in range(calls):
            if call_and_check(self.timed(), kernel, params, inputs,
                              expected, name, ledger, samples,
                              weight) is None:
                return

    def inputs(self, bundle, params: Dict[str, int], index: int):
        """Seeded inputs and the independent reference outputs."""
        import numpy as np
        rng = np.random.default_rng([self.seed, index])
        inputs = bundle.make_inputs(dict(params), rng)
        return inputs, bundle.reference(copies(inputs), dict(params))

    def setup(self, obs):
        raise NotImplementedError

    def measure(self, state, seconds, trace, obs, report, ledger):
        raise NotImplementedError

    def close(self) -> None:
        from repro.backends.parallel import shutdown_pools
        shutdown_pools()
        # The program starts the shared-memory resource tracker; stop it
        # and wait for it, as for the pool workers.
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()


def every_core_speed() -> float:
    """The reference loop run at once here and in ``nproc - 1`` pool
    workers, one loop per core, averaged."""
    from repro.backends.parallel import get_pool
    pool = get_pool(NPROC)
    futures = [pool.submit(reference_seconds) for _ in range(NPROC - 1)] \
        if pool is not None else []
    here = reference_seconds()
    return (here + sum(f.result() for f in futures)) / (1 + len(futures))


def call_and_check(timer: Timed, kernel, params, inputs, expected, name,
                   ledger, samples=None, weight: int = 1):
    """Run ``kernel`` on fresh copies of ``inputs`` (copied outside the
    timed interval) and check it; returns ``timer`` once the output
    matched (its normalized time appended to ``samples``), else None."""
    args = copies(inputs)
    try:
        with timer:
            got = kernel(**args, **params)
    except Exception as exc:  # noqa: BLE001 - counted, run continues
        ledger.fail(name, reason_of(exc), count=weight)
        return None
    problem = outputs_match(got, expected)
    if problem is not None:
        ledger.fail(name, problem, mismatch=True, count=weight)
        return None
    if samples is not None:
        samples.append(timer.norm)
    return timer


def isl_counts():
    """(empty hits, empty misses, compose hits, compose misses) now."""
    from repro.isl import isl_cache_stats
    stats = isl_cache_stats()
    empty, compose = stats.tier("isl.empty"), stats.tier("isl.compose")
    return (empty.hits, empty.misses, compose.hits, compose.misses)


def delta(after, before):
    return tuple(a - b for a, b in zip(after, before))
