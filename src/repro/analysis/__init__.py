"""Project-invariant static analysis (``repro lint``).

The repo's riskiest invariants — lock discipline in the concurrent
service modules, degrade-to-miss error accounting at the network
boundary, encode/decode codec pairing on the wire, and config/CLI/README
drift — are enforced by convention only; a regression in any of them
passes the type checker and usually the unit tests too.  This package
closes that gap with a small stdlib-``ast`` engine and four
project-specific rules:

========  ==========================================================
RL001     lock discipline: attribute writes reachable from public
          methods of a lock-owning class must hold the lock
RL002     degrade-to-miss: network-boundary except handlers must
          account (error counter) or escalate (re-raise), never
          silently swallow
RL003     codec pairing: every ``encode_*`` has a ``decode_*`` in the
          same module and both are exercised by tests
RL004     config drift: ``EnrichmentConfig`` fields ↔ ``cli.py``
          flags ↔ README mentions stay in lockstep
========  ==========================================================

Findings can be suppressed per line with a justified pragma::

    risky_line()  # repro-lint: disable=RL002 - callers count the None

or grandfathered in a baseline file (``repro lint --baseline PATH``);
the CI gate runs with an **empty** baseline, so the repo itself must
stay clean.
"""

from repro.analysis.engine import (
    Finding,
    LintResult,
    ModuleSource,
    Project,
    default_rules,
    lint_project,
    load_baseline,
    render_json,
    render_text,
    save_baseline,
)

__all__ = [
    "Finding",
    "LintResult",
    "ModuleSource",
    "Project",
    "default_rules",
    "lint_project",
    "load_baseline",
    "render_json",
    "render_text",
    "save_baseline",
]
