"""docs/SERVICE.md's field tables are generated from the job field tables.

Each table sits between a ``<!-- begin NAME -->`` and an ``<!-- end NAME
-->`` marker and must equal what :func:`TABLES` renders from
:func:`repro.serve.jobs.spec_fields`.  To regenerate after a change to a
field row::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/serve/test_service_doc.py
"""

from __future__ import annotations

import json
import os
import pathlib
import re

from repro.serve.jobs import spec_fields

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "SERVICE.md"

#: Field tables in the order the doc lists them.
KINDS = ("sweep", "gen", "litmus", "litmus matrix", "chaos", "lint", "fleet")


def _md(text: str) -> str:
    return text.replace("|", "\\|")


def _bound(f) -> str:
    if f.low is None:
        return ""
    return f"> {f.low:g}" if f.type is float else f">= {f.low}"


def _default(f) -> str:
    if f.required:
        return "required"
    return "" if f.default is None else f"`{json.dumps(f.default)}`"


def spec_table() -> str:
    rows = [
        "| kind | field | type | default | lower bound | server ceiling "
        "| meaning |",
        "|---|---|---|---|---|---|---|",
    ]
    for kind in KINDS:
        for f in spec_fields(kind):
            rows.append(
                f"| `{kind}` | `{f.name}` | "
                f"{'names' if f.type is list else f.type.__name__} | "
                f"{_default(f)} | {_bound(f)} | "
                f"{'' if f.ceiling is None else f'{f.ceiling:g}'} | "
                f"{_md(f.help)} |"
            )
    return "\n".join(rows)


def flag_table() -> str:
    rows = [
        "| kind | flag | spec field | value |",
        "|---|---|---|---|",
    ]
    for kind in KINDS:
        for f in spec_fields(kind):
            if f.flag is None:
                continue
            flag = f.flag if f.flag.startswith("-") else f.flag.upper()
            if f.from_cli is not None:
                value = f.from_cli.__doc__
            else:
                value = "true" if f.type is bool else "as given"
            rows.append(f"| `{kind}` | `{flag}` | `{f.name}` | {value} |")
    return "\n".join(rows)


TABLES = {"spec-fields": spec_table, "cli-flags": flag_table}


def _block(name: str) -> re.Pattern:
    return re.compile(
        rf"(<!-- begin {name} [^>]*-->\n)(.*?)(<!-- end {name} -->)",
        re.DOTALL,
    )


def test_service_doc_tables_match_the_field_tables():
    text = DOC.read_text()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        for name, render in TABLES.items():
            text = _block(name).sub(
                lambda m: m.group(1) + render() + "\n" + m.group(3), text
            )
        DOC.write_text(text)
    for name, render in TABLES.items():
        match = _block(name).search(text)
        assert match is not None, f"docs/SERVICE.md lacks the {name} markers"
        assert match.group(2) == render() + "\n", (
            f"docs/SERVICE.md's {name} table is stale; regenerate it "
            "(see this module's docstring)"
        )
