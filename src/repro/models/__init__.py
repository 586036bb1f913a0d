"""Memory-model registry: selectable consistency backends over one hierarchy.

A *memory model* is a :class:`~repro.coherence.base.Protocol` implementation
— the coherence/consistency discipline the caches obey — selected
independently of the machine geometry and of the simulator engine:

* ``base`` — the paper's software-managed incoherent hierarchy
  (:class:`~repro.coherence.incoherent.IncoherentProtocol`): WB/INV ISA,
  MEB/IEB, ThreadMap, exactly as configured by the Table II configuration.
* ``hcc``  — the hardware-coherent reference
  (:class:`~repro.coherence.mesi.MESIProtocol`): full-map directory MESI,
  the value oracle every other model is differentially verified against.
* ``rc``   — Regional Consistency (arXiv 1301.4490,
  :class:`~repro.models.rc.RegionalConsistencyProtocol`): coherence actions
  are scoped to acquire/release-delimited regions — a release flushes only
  the lines *written inside the region*, and an acquire invalidates lazily
  (per-read refresh) instead of walking the tag array.
* ``sisd`` — self-invalidation / self-downgrade ("Mending Fences",
  arXiv 1611.07372, :class:`~repro.models.sisd.SelfInvalidationProtocol`):
  no remote invalidations ever; synchronization points trigger
  self-invalidation of *shared* lines and self-downgrade of *shared dirty*
  lines, with a private/shared classifier supplying ownership-transition
  recovery.

All four run the same programs on the same :class:`~repro.coherence.
hierarchy.Hierarchy` under both simulator engines, cache separately in the
sweep result cache (the model id is part of the cell key), and are
differentially verified against the ``hcc`` oracle by ``repro litmus
--matrix`` and the chaos runner.

Pass ``model="rc"`` to :class:`repro.core.machine.Machine` (or
``--model rc`` on the CLI); the default is ``base``.  Hardware-coherent
Table II configurations always resolve to ``hcc`` — HCC *is* a model, not
a per-model variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.coherence.base import Protocol
from repro.coherence.hierarchy import Hierarchy
from repro.coherence.incoherent import IncoherentProtocol
from repro.coherence.mesi import MESIProtocol
from repro.coherence.threadmap import ThreadMapTable
from repro.common.errors import ConfigError
from repro.core.config import ExperimentConfig
from repro.models.rc import RegionalConsistencyProtocol
from repro.models.sisd import SelfInvalidationProtocol

#: The model a machine runs when none is requested.
DEFAULT_MODEL = "base"

#: Factory signature every registered model provides: build the protocol
#: for one machine.  ``config`` lets the factory honor per-configuration
#: hardware (the base model's MEB/IEB); models that replace those
#: mechanisms ignore it.
ModelFactory = Callable[..., Protocol]


@dataclass(frozen=True)
class ModelSpec:
    """One selectable memory model: its protocol factory and metadata.

    ``software`` is True for models that consume WB/INV annotations (and
    therefore run under the software-coherent Table II configurations);
    the hardware-coherent ``hcc`` reference is the one False entry.
    """

    name: str
    description: str
    software: bool
    factory: ModelFactory


_REGISTRY: dict[str, ModelSpec] = {}


def register_model(spec: ModelSpec) -> ModelSpec:
    """Add *spec* to the registry (last registration of a name wins)."""
    _REGISTRY[spec.name] = spec
    return spec


def available_models() -> tuple[str, ...]:
    """Registered model names, registration order."""
    return tuple(_REGISTRY)


def software_models() -> tuple[str, ...]:
    """Registered models that consume WB/INV annotations (all but ``hcc``)."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.software)


def resolve_model(name: str | None = None) -> ModelSpec:
    """Resolve a model by *name*; ``None`` is the default, ``base``.

    Unknown names raise :class:`~repro.common.errors.ConfigError` listing
    the registered models.
    """
    if name is None:
        name = DEFAULT_MODEL
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown memory model {name!r} (available: "
            + ", ".join(available_models()) + ")"
        )
    return spec


def _make_base(
    hierarchy: Hierarchy,
    config: ExperimentConfig,
    *,
    threadmap: ThreadMapTable | None = None,
    detect_staleness: bool = False,
) -> Protocol:
    return IncoherentProtocol(
        hierarchy,
        use_meb=config.use_meb,
        use_ieb=config.use_ieb,
        threadmap=threadmap,
        detect_staleness=detect_staleness,
    )


def _make_hcc(
    hierarchy: Hierarchy,
    config: ExperimentConfig,
    *,
    threadmap: ThreadMapTable | None = None,
    detect_staleness: bool = False,
) -> Protocol:
    # MESI needs no ThreadMap and cannot go stale; both kwargs are part of
    # the uniform factory signature only.
    return MESIProtocol(hierarchy)


def _make_rc(
    hierarchy: Hierarchy,
    config: ExperimentConfig,
    *,
    threadmap: ThreadMapTable | None = None,
    detect_staleness: bool = False,
) -> Protocol:
    return RegionalConsistencyProtocol(
        hierarchy, threadmap=threadmap, detect_staleness=detect_staleness
    )


def _make_sisd(
    hierarchy: Hierarchy,
    config: ExperimentConfig,
    *,
    threadmap: ThreadMapTable | None = None,
    detect_staleness: bool = False,
) -> Protocol:
    return SelfInvalidationProtocol(
        hierarchy, threadmap=threadmap, detect_staleness=detect_staleness
    )


register_model(
    ModelSpec(
        name="base",
        description="software-managed incoherent hierarchy (the paper's "
        "design: WB/INV ISA, MEB/IEB, ThreadMap)",
        software=True,
        factory=_make_base,
    )
)
register_model(
    ModelSpec(
        name="hcc",
        description="hardware-coherent reference: full-map directory MESI "
        "(the differential value oracle)",
        software=False,
        factory=_make_hcc,
    )
)
register_model(
    ModelSpec(
        name="rc",
        description="Regional Consistency: release flushes only "
        "region-written lines; acquire invalidates lazily per read "
        "(arXiv 1301.4490)",
        software=True,
        factory=_make_rc,
    )
)
register_model(
    ModelSpec(
        name="sisd",
        description="self-invalidation/self-downgrade: sync-triggered "
        "SI of shared lines and SD of shared dirty lines, no remote "
        "invalidations (arXiv 1611.07372)",
        software=True,
        factory=_make_sisd,
    )
)
