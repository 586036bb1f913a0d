"""Static WB/INV annotation analysis (``repro lint``).

The paper's Model 2 relies on a compiler pass — interprocedural CFG
construction plus DEF-USE producer–consumer extraction — to place
level-adaptive ``WB``/``INV`` instructions (Section V).  This package turns
that machinery into a *correctness tool* for every kernel in the repo,
Model-1 hand-annotated SPLASH codes included: a compiler-style static pass
over the kernel's operation stream that reports **missing** annotations
(potential stale reads / lost updates) and **redundant** ones (WB/INV with
no crossing communication), with a ``--fix`` mode that inserts the
level-adaptive ops the way the paper's compiler does.

Pipeline (one module per stage):

1. :mod:`repro.analysis.extract` — drive the spawned thread generators under
   a sequentially-consistent reference scheduler (no caches, no timing) and
   record each thread's linear operation stream with interprocedural call
   provenance;
2. :mod:`repro.analysis.cfg` — per-thread control-flow graph: epoch segments
   bounded by synchronization events, plus the interprocedural call summary;
3. :mod:`repro.analysis.hb` — vector-clock happens-before over sync edges
   (barrier / lock / flag, Section IV-A Table I) yielding the cross-thread
   producer→consumer communication edges;
4. :mod:`repro.analysis.lint` — check every edge against the Table I rules
   (:mod:`repro.analysis.rules`) and report findings;
5. :mod:`repro.analysis.fix` — compute op-stream patches for the findings
   and re-run the patched kernel on the real simulator to verify them.

Every diagnostic references a rule ID documented in ``docs/ANNOTATIONS.md``.
"""

from repro.analysis.extract import KernelTrace, OpEvent, extract
from repro.analysis.hb import HBAnalysis, analyze_hb
from repro.analysis.lint import (
    Finding,
    LintReport,
    lint_machine,
    lint_trace,
    render_report,
)
from repro.analysis.rules import (
    MODEL_PROFILES,
    RULES,
    ModelLintProfile,
    Rule,
    lint_profile,
)

__all__ = [
    "KernelTrace",
    "OpEvent",
    "extract",
    "HBAnalysis",
    "analyze_hb",
    "Finding",
    "LintReport",
    "lint_machine",
    "lint_trace",
    "render_report",
    "RULES",
    "Rule",
    "ModelLintProfile",
    "MODEL_PROFILES",
    "lint_profile",
]
