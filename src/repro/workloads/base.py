"""Workload interfaces and registry.

Two workload families mirror the paper's two programming models:

* :class:`ModelOneWorkload` — SPLASH-2-style pointer/irregular codes written
  directly against the :class:`~repro.core.context.ThreadCtx` API with
  Model-1 annotations.  Each declares its Table I communication patterns and
  provides a functional verifier against a per-process memoized reference.
* :class:`ModelTwoWorkload` — NAS-style loop-nest codes expressed in the
  Model-2 IR, lowered by the mini-ROSE pipeline.  Verification compares the
  simulated final memory against the reference interpreter.

Registries map workload names to classes for the evaluation harness.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.compiler.executor import ModelTwoRunner
from repro.compiler.interp import interpret
from repro.compiler.ir import IRProgram
from repro.common.errors import ConfigError, expect
from repro.core.machine import Machine


class Pattern:
    """Communication-pattern labels of Table I."""

    BARRIER = "barrier"
    CRITICAL = "critical"
    FLAG = "flag"
    OUTSIDE_CRITICAL = "outside critical"
    DATA_RACE = "data race"


#: Per-process memo of Model-1 reference outputs, keyed by
#: :attr:`ModelOneWorkload.memo_key`.  Filled lazily by ``expected()``.
_REFERENCES: dict[tuple, Any] = {}


def _freeze(value: Any) -> Any:
    """*value* made read-only: arrays lose ``writeable``, sequences become tuples."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class ModelOneWorkload(ABC):
    """A SPLASH-2-style intra-block workload.

    Verification is split in two.  :meth:`reference` computes the expected
    final values sequentially; it must be a pure function of the
    constructor arguments (no :class:`Machine`, no state set after
    ``__init__``).  :meth:`verify` compares one cell's simulated memory
    against :meth:`expected`, element by element.

    ``expected()`` memoizes ``reference()`` once per process:

    * the key is the concrete class plus its constructor arguments bound
      with defaults applied (:attr:`memo_key`), so ``FFT(0.5)`` and
      ``FFT(scale=0.5, n=None)`` share an entry and any differing argument
      gets its own;
    * it is filled lazily, on the first ``expected()`` call for a key;
      construction and ``prepare`` compute nothing;
    * stored values are read-only (numpy arrays have ``writeable=False``,
      containers are tuples), so no cell can alter a later cell's
      expectation;
    * it is per process: under ``--jobs N`` each worker keeps its own.
    """

    #: Registry name, e.g. "fft".
    name: str = ""
    #: Dominant communication pattern(s), Table I "Main" column.
    main_patterns: tuple[str, ...] = ()
    #: Secondary patterns, Table I "Other" column.
    other_patterns: tuple[str, ...] = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> ModelOneWorkload:
        self = super().__new__(cls)
        bound = inspect.signature(cls.__init__).bind(self, *args, **kwargs)
        bound.apply_defaults()
        #: The reference memo key: (class, bound constructor arguments).
        self.memo_key = (cls, tuple(bound.arguments.items())[1:])
        return self

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ConfigError("scale must be positive")
        self.scale = scale

    @abstractmethod
    def prepare(self, machine: Machine) -> None:
        """Allocate arrays, preload inputs, and spawn all threads."""

    @abstractmethod
    def reference(self) -> Any:
        """The expected final values, computed sequentially from the inputs."""

    def expected(self) -> Any:
        """:meth:`reference`, memoized per process and read-only."""
        key = self.memo_key
        if key not in _REFERENCES:
            _REFERENCES[key] = _freeze(self.reference())
        return _REFERENCES[key]

    @abstractmethod
    def verify(self, machine: Machine) -> None:
        """Assert final memory holds :meth:`expected` (post ``run()``)."""

    def run_on(self, machine: Machine):
        """Convenience: prepare, run, verify; returns the statistics."""
        self.prepare(machine)
        stats = machine.run()
        self.verify(machine)
        return stats


class ModelTwoWorkload(ABC):
    """A NAS-style inter-block workload expressed in the Model-2 IR.

    ``num_blocks`` is the block count of the machine the program will run
    on; only block-aware programs (the hierarchical reduction of
    ``ep_hier``) read it.
    """

    name: str = ""

    def __init__(self, scale: float = 1.0, num_blocks: int = 4) -> None:
        if scale <= 0:
            raise ConfigError("scale must be positive")
        self.scale = scale
        self.num_blocks = num_blocks

    @abstractmethod
    def build(self) -> tuple[IRProgram, dict[str, list[Any]]]:
        """Return (IR program, preloaded initial array contents)."""

    #: Arrays whose final contents are checked against the interpreter.
    verify_arrays: tuple[str, ...] = ()
    #: Relative tolerance for float comparison (reduction reassociation).
    rel_tol: float = 1e-6

    def make_runner(self, machine: Machine) -> ModelTwoRunner:
        program, preloads = self.build()
        runner = ModelTwoRunner(machine, program)
        for name, values in preloads.items():
            runner.preload(name, values)
        return runner

    def reference(
        self, nthreads: int, blocks: list[list[int]] | None = None
    ) -> dict[str, list[Any]]:
        program, preloads = self.build()
        return interpret(program, nthreads, preloads, blocks=blocks)

    def verify(self, runner: ModelTwoRunner) -> None:
        """Compare the simulated final arrays against the interpreter."""
        placement = runner.machine.placement
        blocks = [
            placement.threads_in_block(b)
            for b in range(runner.machine.params.num_blocks)
        ]
        blocks = [b for b in blocks if b]
        ref = self.reference(runner.n, blocks)
        for name in self.verify_arrays:
            got = runner.result(name)
            want = ref[name]
            if got == want:
                continue  # every word passes the checks below
            for k, (g, w) in enumerate(zip(got, want)):
                if isinstance(w, float) or isinstance(g, float):
                    ok = abs(g - w) <= self.rel_tol * max(1.0, abs(w))
                else:
                    ok = g == w
                expect(ok, "{}: {}[{}] = {!r}, expected {!r}",
                       self.name, name, k, g, w)

    def prepare(self, machine: Machine) -> ModelTwoRunner:
        """Lower the IR, preload inputs, and spawn all threads.

        Uniform counterpart of :meth:`ModelOneWorkload.prepare` so generic
        tooling (``repro lint``, the sweep engine) can stage any workload
        on a machine without knowing its model; returns the runner needed
        for Model-2 verification.
        """
        runner = self.make_runner(machine)
        runner.spawn_all()
        return runner

    def run_on(self, machine: Machine):
        """Convenience: prepare, run, verify; returns the statistics."""
        runner = self.prepare(machine)
        stats = machine.run()
        self.verify(runner)
        return stats


MODEL_ONE: dict[str, type[ModelOneWorkload]] = {}
MODEL_TWO: dict[str, type[ModelTwoWorkload]] = {}


def register_model_one(cls: type[ModelOneWorkload]) -> type[ModelOneWorkload]:
    if not cls.name:
        raise ConfigError(f"{cls.__name__} has no name")
    MODEL_ONE[cls.name] = cls
    return cls


def register_model_two(cls: type[ModelTwoWorkload]) -> type[ModelTwoWorkload]:
    if not cls.name:
        raise ConfigError(f"{cls.__name__} has no name")
    MODEL_TWO[cls.name] = cls
    return cls
