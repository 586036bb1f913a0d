"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching programming mistakes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """An architecture or experiment configuration is invalid."""


class AddressError(ReproError):
    """An address is out of range, misaligned, or maps to no allocation."""


class ProtocolError(ReproError):
    """A coherence-protocol invariant was violated (internal bug detector)."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class DeadlockError(SimulationError):
    """All cores are blocked and no events are pending."""


class SyncError(ReproError):
    """Misuse of a synchronization primitive (e.g. releasing an unheld lock)."""


class CompilerError(ReproError):
    """The Model-2 loop-nest analysis was given an unsupported program."""


class OrderingError(ReproError):
    """A forbidden instruction reordering (Section III-C) was attempted."""


class MPIError(ReproError):
    """Misuse of the on-chip message-passing layer."""


class AnalysisError(ReproError):
    """The static annotation analyzer could not process a kernel."""


def expect(ok: bool, message: str, *args) -> None:
    """A verifier's check: raise ``AssertionError`` unless *ok*.

    Workload verifiers and litmus oracles call this instead of ``assert``,
    which ``python -O`` strips.  The type stays ``AssertionError`` (not a
    :class:`ReproError`): it is a wrong answer, and the CLI and the sweep
    matrix catch it as one.  *message* is formatted with *args* only when
    the check fails, so a check in a loop builds no message it does not
    raise.
    """
    if not ok:
        raise AssertionError(message.format(*args) if args else message)


def expect_close(name: str, got, want, *, rtol: float, atol: float) -> None:
    """A verifier's array check: :func:`expect` that *got* is
    ``np.allclose`` to *want* under *rtol*/*atol*.

    On failure the message names the array *name*, its first differing
    flat index (and the index in *want*'s shape), the observed and the
    expected value there, and how many elements differ.
    """
    import numpy as np

    got, want = np.broadcast_arrays(np.asarray(got), np.asarray(want))
    close = np.isclose(got, want, rtol=rtol, atol=atol)
    if close.all():
        return
    bad = np.flatnonzero(~close)
    i = int(bad[0])
    where = tuple(int(k) for k in np.unravel_index(i, want.shape))
    raise AssertionError(
        f"{name} mismatch at flat index {i} {list(where)}: got "
        f"{got.flat[i].item()!r}, expected {want.flat[i].item()!r} "
        f"({bad.size} of {want.size} elements differ; rtol={rtol:g}, "
        f"atol={atol:g})"
    )
