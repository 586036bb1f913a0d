"""Persistent, content-addressed cache of verified sweep results.

Every (application × configuration) cell of a sweep is fully determined by
its inputs — the simulator is deterministic — so a verified
:class:`~repro.eval.runner.RunResult` can be reused across processes and
across sessions.  This module stores one JSON file per cell under a cache
root, keyed by a stable SHA-256 hash of the *complete* cell identity:

* cache schema version and ``repro.__version__``,
* sweep kind (``intra`` / ``inter`` / ``litmus`` / ``gen``), application
  name (for ``gen`` cells, additionally the canonical ScenarioSpec digest),
* every field of the :class:`~repro.core.config.ExperimentConfig`,
* the **resolved** :class:`~repro.common.params.MachineParams` (defaults are
  expanded, so passing ``machine_params=None`` and passing the equivalent
  explicit machine hash identically),
* thread/block geometry (``num_threads`` or ``num_blocks`` ×
  ``cores_per_block``), workload ``scale``, and the ``verify`` flag,
* the digest of the armed fault plan (``None`` for fault-free runs),
* any extra runner keyword arguments (by repr).

Changing any of those fields — or bumping the package version — invalidates
the cached cell.  The root directory is ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/repro-sweeps``.

Entries are written atomically (tmp file + ``fsync`` + rename), so
concurrent sweep workers racing on the same cell are safe — last writer
wins with identical bytes — and a crash (even ``kill -9``) mid-write can
never leave a truncated entry under the final path.

Every entry embeds a SHA-256 checksum of its own payload
(:func:`payload_digest`), verified on every load.  A corrupt entry — a
truncated file, flipped bits, a bad JSON edit — is **never served**: it is
moved to ``<root>/quarantine/`` (forensics, not silent deletion), counted
in :attr:`ResultCache.corrupt_detected`, and reported as a miss, so the
sweep engine recomputes and rewrites a healthy entry on the same key.
``repro cache stats|verify|gc`` exposes the same machinery from the CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from typing import TYPE_CHECKING

from repro import __version__
from repro.eval.runner import RunResult, layout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel → cache)
    from repro.eval.parallel import SweepCell

#: Bump when the on-disk payload layout changes; invalidates old entries.
#: 2: litmus cells, fault_plan digest, MEB/IEB counters in MachineStats.
#: 3: embedded sha256 payload checksum, verified on every load.
#: 4: memory-model axis (effective model id in the key) and the per-model
#:    degradation counters in MachineStats.
CACHE_SCHEMA = 4


class CacheIntegrityError(ValueError):
    """A cache entry that is present but unusable (truncated, tampered)."""


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-sweeps``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path.home() / ".cache" / "repro-sweeps"


def describe_cell(cell: "SweepCell") -> dict:
    """The complete, JSON-safe identity of one sweep cell.

    This is the exact payload the cache key hashes; it is also archived in
    each entry so users can inspect why a cell did (not) hit.
    """
    from repro.models import DEFAULT_MODEL

    kwargs = dict(cell.kwargs)
    machine = kwargs.pop("machine_params", None)
    plan = kwargs.pop("faults", None)
    # The *effective* memory model, resolved the way Machine resolves it
    # (explicit kwarg, then the default) — unlike the
    # engine, models legitimately produce different statistics, so the key
    # must separate them.  Hardware-coherent configurations always run
    # MESI, so they all key as "hcc" regardless of the requested model.
    model = kwargs.pop("model", None)
    if cell.config.hardware_coherent:
        model = "hcc"
    elif model is None:
        model = DEFAULT_MODEL
    # The kind's own layout resolves the defaults, so the key describes
    # exactly the machine the runner builds.
    subject = layout(cell.kind, cell.app, kwargs, machine)
    return {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "kind": cell.kind,
        "app": cell.app,
        "config": dataclasses.asdict(cell.config),
        "machine": dataclasses.asdict(subject.params),
        "geometry": subject.geometry,
        "memory_model": model,
        "scale": kwargs.pop("scale", 1.0),
        "verify": kwargs.pop("verify", True),
        # The armed fault plan changes every timing statistic, so its digest
        # (which covers the plan seed and every spec) is part of the key.
        "fault_plan": plan.digest() if plan is not None else None,
        "extra": {k: repr(v) for k, v in sorted(kwargs.items())},
    }


def cell_key(cell: "SweepCell") -> str:
    """Stable SHA-256 hex key of a sweep cell's full identity."""
    blob = json.dumps(
        describe_cell(cell), sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def payload_digest(doc: dict) -> str:
    """SHA-256 hex digest of an entry document, excluding its own checksum.

    The digest covers the canonical JSON form of every field except
    ``sha256`` itself, so an entry can carry its checksum inline and still
    be verified by recomputing over what remains.
    """
    body = {k: v for k, v in doc.items() if k != "sha256"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """On-disk result store: ``<root>/<key[:2]>/<key>.json`` per cell.

    Integrity discipline: every entry is written atomically (tmp +
    ``fsync`` + ``os.replace``) with an embedded payload checksum, and
    every load re-verifies that checksum.  Entries that fail — truncated,
    bit-flipped, hand-mangled — are quarantined and reported as misses, so
    the caller recomputes and the next :meth:`put` heals the slot.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupt_detected = 0
        self.quarantined = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        """Where corrupt entries are moved (``<root>/quarantine``)."""
        return self.root / "quarantine"

    def _load_verified(self, path: pathlib.Path) -> dict:
        """Parse *path* and verify its embedded checksum.

        Raises :class:`OSError` when the file is absent/unreadable and
        :class:`CacheIntegrityError` when it is present but unusable.
        """
        raw = path.read_text()
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise CacheIntegrityError(f"unparseable JSON: {exc}") from None
        if not isinstance(doc, dict) or "result" not in doc:
            raise CacheIntegrityError("entry is not a result document")
        stored = doc.get("sha256")
        if stored is None:
            raise CacheIntegrityError("entry carries no checksum")
        if stored != payload_digest(doc):
            raise CacheIntegrityError("payload checksum mismatch")
        return doc

    def quarantine(self, path: pathlib.Path, reason: str = "") -> pathlib.Path:
        """Move a corrupt entry aside (never serve it, never hide it).

        The file lands in :attr:`quarantine_dir` with a ``.corrupt``
        suffix (plus a counter when the name collides), so operators can
        inspect what went wrong; ``repro cache gc`` reclaims the space.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        dest = self.quarantine_dir / f"{path.name}.corrupt"
        n = 0
        while dest.exists():
            n += 1
            dest = self.quarantine_dir / f"{path.name}.corrupt.{n}"
        try:
            os.replace(path, dest)
        except OSError:
            # Cross-device or permission trouble: deletion still guarantees
            # the corrupt bytes are never served again.
            try:
                path.unlink()
            except OSError:
                pass
        self.quarantined += 1
        if reason:
            try:
                dest.with_suffix(dest.suffix + ".reason").write_text(
                    reason + "\n"
                )
            except OSError:  # pragma: no cover - forensics are best-effort
                pass
        return dest

    def get(self, cell: "SweepCell") -> RunResult | None:
        """Rehydrated result for *cell*, or None.

        A missing entry is a plain miss.  A *corrupt* entry (truncation,
        checksum mismatch, undecodable result) is quarantined, counted in
        :attr:`corrupt_detected`, and then reported as a miss — the
        self-healing path: the caller recomputes, :meth:`put` rewrites.
        """
        path = self._path(cell_key(cell))
        try:
            doc = self._load_verified(path)
            result = RunResult.from_dict(doc["result"])
        except OSError:
            self.misses += 1
            return None
        except (CacheIntegrityError, ValueError, KeyError, TypeError) as exc:
            self.corrupt_detected += 1
            self.quarantine(path, reason=str(exc))
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, cell: "SweepCell", result: RunResult) -> pathlib.Path:
        """Persist *result* for *cell* atomically; return the entry path.

        The entry is staged in a temp file, flushed and ``fsync``'d, then
        renamed over the final path — a crash at any instant leaves either
        the old entry or the new one, never a torn file.
        """
        key = cell_key(cell)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "cell": describe_cell(cell),
            "result": result.to_dict(),
        }
        payload["sha256"] = payload_digest(payload)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def entries(self) -> list[pathlib.Path]:
        """Paths of all cached cells under the root (quarantine excluded)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.glob("*/*.json")
            if p.parent.name != "quarantine"
        )

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every cached entry; return how many were removed."""
        n = 0
        for path in self.entries():
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        return n

    # -- maintenance (the `repro cache` subcommand) ---------------------------

    def verify(self, repair: bool = True) -> dict:
        """Integrity-check every entry; optionally quarantine the bad ones.

        Classifies each entry as ``ok`` (checksum verifies and the schema
        is current), ``stale`` (healthy bytes from an older
        :data:`CACHE_SCHEMA` / package version — dead weight, since its
        key can no longer be generated), or ``corrupt`` (truncated, bit
        flipped, checksum missing/mismatched, filename/key disagreement).
        With ``repair=True`` corrupt entries are quarantined on the spot.
        Returns a JSON-safe report.
        """
        ok, stale, corrupt = [], [], []
        for path in self.entries():
            try:
                doc = self._load_verified(path)
                if doc.get("key") != path.stem:
                    raise CacheIntegrityError("entry key != filename")
                cell = doc.get("cell", {})
                if (
                    cell.get("schema") == CACHE_SCHEMA
                    and cell.get("version") == __version__
                ):
                    ok.append(path)
                else:
                    stale.append(path)
            except (CacheIntegrityError, ValueError, KeyError, TypeError) as exc:
                corrupt.append(path)
                self.corrupt_detected += 1
                if repair:
                    self.quarantine(path, reason=str(exc))
        return {
            "checked": len(ok) + len(stale) + len(corrupt),
            "ok": len(ok),
            "stale": len(stale),
            "corrupt": len(corrupt),
            "corrupt_paths": [str(p) for p in corrupt],
            "repaired": len(corrupt) if repair else 0,
        }

    def gc(self) -> dict:
        """Reclaim dead weight: stale-schema entries + the quarantine dir.

        Live current-schema entries are never touched.  Returns the
        removal counts.
        """
        report = self.verify(repair=True)
        stale_removed = 0
        for path in self.entries():
            try:
                doc = self._load_verified(path)
            except (CacheIntegrityError, ValueError, OSError):
                continue  # verify() already quarantined what it could
            cell = doc.get("cell", {})
            if (
                cell.get("schema") != CACHE_SCHEMA
                or cell.get("version") != __version__
            ):
                try:
                    path.unlink()
                    stale_removed += 1
                except OSError:
                    pass
        quarantine_removed = 0
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                try:
                    path.unlink()
                    quarantine_removed += 1
                except OSError:
                    pass
        return {
            "stale_removed": stale_removed,
            "quarantine_removed": quarantine_removed,
            "corrupt_quarantined": report["corrupt"],
            "kept": len(self.entries()),
        }

    def stats(self) -> dict:
        """JSON-safe summary of the store: entry counts, bytes, schemas."""
        entries = self.entries()
        by_schema: dict[str, int] = {}
        total_bytes = 0
        for path in entries:
            try:
                total_bytes += path.stat().st_size
                doc = json.loads(path.read_text())
                tag = str(doc.get("cell", {}).get("schema", "?"))
            except (OSError, ValueError):
                tag = "unreadable"
            by_schema[tag] = by_schema.get(tag, 0) + 1
        quarantine = (
            sorted(self.quarantine_dir.iterdir())
            if self.quarantine_dir.is_dir()
            else []
        )
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA,
            "version": __version__,
            "entries": len(entries),
            "bytes": total_bytes,
            "by_schema": dict(sorted(by_schema.items())),
            "quarantined_files": len(
                [p for p in quarantine if not p.name.endswith(".reason")]
            ),
        }

    def counters(self) -> dict:
        """The in-memory session counters (hit/miss/corrupt/quarantine)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_detected": self.corrupt_detected,
            "quarantined": self.quarantined,
        }
