"""Failure accounting and the result line every run ends with."""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """What one workload run measured, before it is printed.

    ``failures`` maps each failed operation to its reason.  ``known`` lists
    the failures that are known defects of the program: they still count
    as failed, but only a failure outside that list makes the run
    incorrect.
    """

    workload: str
    attempted: int
    failures: dict[str, str] = field(default_factory=dict)
    known: dict[str, str] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    fingerprint: str = ""
    spans: object = None

    @property
    def unexpected(self) -> dict[str, str]:
        """Failures that are not a listed known defect with its reason."""
        return {
            op: why for op, why in self.failures.items()
            if op not in self.known or self.known[op] not in why
        }

    @property
    def correct(self) -> bool:
        return not self.unexpected


def result_line(outcome: Outcome, declared: list[dict], values: dict) -> str:
    """The final JSON line: every *declared* metric, by name, with its unit."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"{outcome.workload} did not measure {missing}")
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    })


def human_lines(outcome: Outcome, declared: list[dict], values: dict) -> list[str]:
    """Readable summary printed above the result line."""
    lines = [f"workload {outcome.workload}"]
    lines += [f"  note: {n}" for n in outcome.notes]
    lines.append(f"  ops_attempted {outcome.attempted}")
    lines.append(f"  ops_failed {len(outcome.failures)}")
    for op, why in sorted(outcome.failures.items()):
        tag = "unexpected" if op in outcome.unexpected else "known defect"
        lines.append(f"    failed {op}: {why} ({tag})")
    lines.append(f"  stats_fingerprint sha256:{outcome.fingerprint}")
    for m in declared:
        v = values[m["name"]]
        shown = f"{v:>16d}" if isinstance(v, int) else f"{v:>16.6f}"
        lines.append(f"  {m['name']:<34} {shown} {m['unit']}")
    return lines
