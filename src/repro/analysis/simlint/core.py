"""simlint engine: findings, the rule base, the runner, renderers.

The engine is rule-agnostic: it parses each file once into a
:class:`~repro.analysis.simlint.model.ProgramModel`, runs every selected
rule over it, and filters findings suppressed by ``# simlint:
disable=`` allowlists.  Per-module rules live in
:mod:`repro.analysis.simlint.rules`, whole-program rules in
:mod:`repro.analysis.simlint.passes`.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .catalogue import ApiDoc, Contracts, parse_api_doc, parse_observability
from .model import LintError, ModuleInfo, ProgramModel

#: Directory names never descended into when walking a tree.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


@dataclass(frozen=True, order=True)
class Finding:
    """One structured lint finding."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


class Rule:
    """Base class: subclasses set ``code``/``title`` and implement
    :meth:`check_module`, a per-module pass.

    A whole-program rule sets ``whole_program = True`` and overrides
    :meth:`check` instead; selecting one makes the runner load the docs
    contracts and build the program-wide indexes.
    """

    code = ""
    title = ""
    whole_program = False

    def check(self, program: ProgramModel,
              contracts: Contracts | None) -> Iterator[Finding]:
        for info in program.files:
            yield from self.check_module(info)

    def check_module(self, info: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, info: ModuleInfo, node: ast.AST,
                message: str) -> Finding:
        return Finding(path=info.path, line=node.lineno,
                       col=node.col_offset, rule=self.code, message=message)

    def doc_finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(path=path, line=line, col=0, rule=self.code,
                       message=message)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def iter_python_files(paths: Iterable) -> Iterator[str]:
    """Expand files and directories into a sorted stream of ``.py``
    paths (deterministic walk order, skip caches)."""
    for path in paths:
        path = str(path)
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(d for d in dirnames
                                     if d not in _SKIP_DIRS)
                for fn in sorted(filenames):
                    if fn.endswith(".py"):
                        yield os.path.join(dirpath, fn)
        else:
            yield path


def find_contract_root(paths, docs_dir: str | None = None) -> str:
    """Locate the repo root whose ``docs/`` holds the contracts.

    Walks up from the first analyzed path until a directory containing
    ``docs/OBSERVABILITY.md`` is found — so fixture packages that carry
    their own ``docs/`` get checked against those, not the repo's.  An
    explicit *docs_dir* (the parent of OBSERVABILITY.md/API.md) skips
    the walk.
    """
    if docs_dir is not None:
        if not os.path.isfile(os.path.join(docs_dir, "OBSERVABILITY.md")):
            raise LintError(
                f"--docs {docs_dir!r} has no OBSERVABILITY.md")
        return os.path.dirname(os.path.abspath(docs_dir)) or os.sep
    if not paths:
        raise LintError("no paths to analyze")
    probe = os.path.abspath(str(next(iter(paths))))
    if os.path.isfile(probe):
        probe = os.path.dirname(probe)
    while True:
        if os.path.isfile(os.path.join(probe, "docs", "OBSERVABILITY.md")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            raise LintError(
                "no docs/OBSERVABILITY.md found above the analyzed "
                "paths — the deep passes check code against that "
                "contract (pass --docs to point at it explicitly)")
        probe = parent


def _relative(path: str, root: str) -> str:
    rel = os.path.relpath(os.path.abspath(path), root)
    return pathlib.PurePath(rel).as_posix()


def _load_contracts(root: str, model: ProgramModel) -> Contracts:
    obs_path = os.path.join(root, "docs", "OBSERVABILITY.md")
    api_path = os.path.join(root, "docs", "API.md")
    catalogue = parse_observability(obs_path)
    catalogue.path = _relative(obs_path, root)
    package = min((name.partition(".")[0] for name in model.modules),
                  default="repro")
    if os.path.isfile(api_path):
        api = parse_api_doc(api_path, package=package)
        api.path = _relative(api_path, root)
    else:
        api = ApiDoc(path=_relative(api_path, root))
    return Contracts(catalogue=catalogue, api=api, package=package,
                     root=root)


def _selected(rules: Iterable | None) -> tuple:
    from .rules import RULES

    if rules is None:
        return tuple(rule for rule in RULES if not rule.whole_program)
    return tuple(rules)


def _run(model: ProgramModel, rules: tuple,
         contracts: Contracts | None) -> list[Finding]:
    if any(rule.whole_program for rule in rules):
        model.build_indexes()
    by_path = {info.path: info for info in model.files}
    kept = []
    for rule in rules:
        for finding in rule.check(model, contracts):
            info = by_path.get(finding.path)
            if info is None or not info.suppressed(finding):
                kept.append(finding)
    return sorted(kept)


def lint_paths(paths: Iterable, rules: Iterable | None = None,
               docs_dir: str | None = None) -> list[Finding]:
    """Lint every ``.py`` file under *paths* (files or directories).

    *rules* defaults to the per-module rules.  Selecting any
    whole-program rule loads the docs contracts from the root
    :func:`find_contract_root` finds (or *docs_dir*), and reports every
    path relative to that root, so findings and baselines do not depend
    on the working directory.
    """
    paths = list(paths)
    rules = _selected(rules)
    root = None
    if any(rule.whole_program for rule in rules):
        root = find_contract_root(paths, docs_dir)
    model = ProgramModel(whole_program=root is not None)
    for path in iter_python_files(paths):
        model.add_file(path, display_path=root and _relative(path, root))
    contracts = None if root is None else _load_contracts(root, model)
    return _run(model, rules, contracts)


def lint_source(source: str, path: str = "<string>",
                rules: Iterable | None = None) -> list[Finding]:
    """Lint one source string reported under *path* with *rules*
    (default: the per-module rules); returns sorted, unsuppressed
    findings.

    A syntactically invalid file yields a single ``SL000`` parse-error
    finding rather than raising.
    """
    model = ProgramModel()
    model.add_source(source, str(path))
    return _run(model, _selected(rules), None)


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------


def render_text(findings: list[Finding]) -> str:
    """Compiler-style one-line-per-finding text plus a summary line."""
    lines = [f.format() for f in findings]
    n = len(findings)
    lines.append("simlint: clean" if not n else
                 f"simlint: {n} finding{'s' if n != 1 else ''}")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable rendering: ``{"findings": [...], "count": N}``."""
    return json.dumps(
        {"findings": [f.to_dict() for f in findings],
         "count": len(findings)},
        indent=2, sort_keys=True)
