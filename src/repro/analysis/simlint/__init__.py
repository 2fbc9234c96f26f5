"""simlint: repo-specific static analysis for determinism & invariants.

A small AST-based linter (stdlib :mod:`ast` only, no dependencies) whose
rules encode this repository's correctness contracts — the properties
that keep fleet manifests bit-identical across worker counts and keep
allocator invariants alive under ``python -O``.  One engine parses each
file once into a :class:`~repro.analysis.simlint.model.ProgramModel` and
runs two kinds of rule over it.  The per-module rules read one file at
a time:

========  ==========================================================
SL001     no wall-clock time in ``mm``/``sim``/``kalloc``/``fleet``
          (sim-time only; ``time.perf_counter`` durations are exempt)
SL002     no module-level or unseeded ``random`` — randomness must
          flow through an injected seeded ``random.Random(seed)``
SL003     tracepoint disabled-path contract — ``tp.emit(...)`` with
          arguments must sit under ``if tp.enabled:``
SL004     no bare ``assert`` carrying simulator invariants (stripped
          by ``-O``); raise ``SimInvariantError`` / use the sanitizer
SL005     no mutable default arguments
SL006     deterministic iteration — set iteration feeding output or
          accumulation in ``fleet``/``telemetry`` needs ``sorted()``
SL007     no new calls to deprecated APIs (``contiguity_values`` /
          ``unmovable_values``)
SL008     retry loops must be bounded — ``while True:`` with retry
          markers needs an attempt counter
SL009     no per-frame Python-object construction in ``mm`` hot
          loops — read the packed arrays, build objects at the API
          boundary
SL010     durable writes in ``checkpoint``/``experiments``/
          ``telemetry`` must stage to a tempfile and ``os.replace``
SL011     no whole-memory ``<x>_mask()[...]`` in ``mm``/``core``/
          ``kalloc`` — read one range through the ``PhysicalMemory``
          range forms
========  ==========================================================

The whole-program rules (``repro lint --deep``) diff the tree against
the contracts in ``docs/``:

========  ==========================================================
DL101     every tracepoint/metric name matches the
          docs/OBSERVABILITY.md catalogue, and vice versa
DL102     string-seeded ``random.Random`` streams follow
          ``{site}:{purpose}…:{seed}`` and do not escape their purpose
DL103     docs/API.md and the code agree on the stable surface
DL104     nothing reachable from a manifest/snapshot producer iterates
          a set unsorted or calls ``id()``
========  ==========================================================

SL000/DL100 report a file that does not parse.  Suppress a finding
with a trailing ``# simlint: disable=SL004`` comment (comma-separate
several codes), or a whole file with ``# simlint: disable-file=SL004``
on its own line; docs-anchored findings are suppressible only through
the baseline file.  See ``docs/ANALYSIS.md`` for the full catalogue and
the ``repro lint`` CLI.
"""

from .baseline import (
    Baseline,
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .core import (
    Finding,
    LintError,
    Rule,
    find_contract_root,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from .rules import DEPRECATED_APIS, RULES, rule_catalogue
from .sarif import render_sarif

__all__ = [
    "Baseline",
    "BaselineError",
    "DEPRECATED_APIS",
    "Finding",
    "LintError",
    "RULES",
    "Rule",
    "apply_baseline",
    "find_contract_root",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalogue",
    "write_baseline",
]
