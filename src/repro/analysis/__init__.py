"""In-repo static analysis: the determinism/picklability/concurrency
linter, the packed-program verifier, and the scheduler protocol checks.

Four entry points:

* :func:`repro.analysis.linter.lint_paths` / ``python -m repro.analysis``
  — the AST linter (``RPL###`` rule catalog, per-line suppressions,
  committed baseline); stdlib-``ast`` only and never imports the code it
  lints.
* :func:`repro.analysis.progcheck.verify_program` — the packed-program
  verifier :class:`repro.pauliframe.compiled.CompiledFrameProgram` runs
  over its own instruction stream at build time (opcode validity,
  operand bounds, fused-batch aliasing, noise-plane budgets,
  probability ranges).
* :func:`repro.analysis.protospec.self_check` — the scheduler's
  jobs-table SQL is rendered from the declared transition spec
  (``repro.analysis.protospec.SQL``); the self-check executes every
  rendered statement against an in-memory table and confirms it does
  what its rule declares.
* :func:`repro.analysis.explore.explore` — bounded exhaustive
  interleaving exploration of the declared lease protocol (model
  claimants whose atomic steps mirror the real transactions), with
  minimal counterexample traces for any safety-invariant violation.

``python -m repro.analysis --verify-protocol`` runs the last two.

See ``ANALYSIS.md`` at the repo root for the rule catalog, suppression
syntax, and the baseline workflow; ``SCHEDULER.md`` embeds the declared
transition diagram.

``progcheck`` names are re-exported lazily so importing the linter (CI,
pre-commit) never pulls numpy or the simulation engine; the protocol
names are lazy only to keep the linter's import footprint minimal (they
are stdlib-clean too).
"""

from __future__ import annotations

from repro.analysis.diagnostics import RULES, Diagnostic, Rule, iter_rules
from repro.analysis.linter import (
    BASELINE_NAME,
    LintReport,
    collect_targets,
    lint_paths,
    lint_source,
)

__all__ = [
    "BASELINE_NAME",
    "Diagnostic",
    "LintReport",
    "RULES",
    "Rule",
    "collect_targets",
    "iter_rules",
    "lint_paths",
    "lint_source",
    # lazily re-exported from repro.analysis.progcheck:
    "BadOpcode",
    "BufferAliasError",
    "NoiseRangeError",
    "OperandRangeError",
    "ProgramVerificationError",
    "verify_program",
    # lazily re-exported from repro.analysis.explore (the explore()
    # function itself is imported from its submodule — the bare name
    # would clash with the submodule attribute):
    "ExplorationReport",
    "ModelConfig",
]

_PROGCHECK_NAMES = {
    "BadOpcode",
    "BufferAliasError",
    "NoiseRangeError",
    "OperandRangeError",
    "ProgramVerificationError",
    "verify_program",
}

_EXPLORE_NAMES = {
    "ExplorationReport",
    "ModelConfig",
}


def __getattr__(name: str):
    if name in _PROGCHECK_NAMES:
        from repro.analysis import progcheck

        return getattr(progcheck, name)
    if name in _EXPLORE_NAMES:
        from repro.analysis import explore

        return getattr(explore, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
