"""The program model every lint rule runs on.

Each file is parsed once into a :class:`ModuleInfo`.  One walk of its
tree lays down parent links and indexes the nodes by type (in
``ast.walk`` order), so a rule asks ``info.nodes(ast.Call)`` instead of
re-walking the module; the same object carries the file's
``# simlint: disable=`` allowlists and its subsystem scoping.

:class:`ProgramModel` holds every module of one lint run.  Per-module
rules read one :class:`ModuleInfo` at a time; the whole-program rules
also use the indexes :meth:`ProgramModel.build_indexes` adds:

* a **call-site index** — every call, keyed by the callee's simple
  name, so reachability sweeps don't re-walk the forest;
* **string-literal provenance** — module-level string constants,
  importable across modules, so a name spelled ``PREFIX + suffix`` or
  ``f"{SITE}:{seed}"`` still resolves to its literal prefix.
"""

from __future__ import annotations

import ast
import heapq
import os
import re
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "COMPREHENSIONS",
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "ProgramModel",
    "StringVal",
    "loop_iterables",
]

_DISABLE_RE = re.compile(r"#\s*simlint:\s*disable=([A-Za-z0-9_,\s]+)")
_DISABLE_FILE_RE = re.compile(
    r"^\s*#\s*simlint:\s*disable-file=([A-Za-z0-9_,\s]+)")

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _parse_codes(raw: str) -> set[str]:
    return {c.strip().upper() for c in raw.split(",") if c.strip()}


@dataclass(frozen=True)
class StringVal:
    """What static analysis knows about a string expression.

    ``exact=True`` means *prefix* is the whole value; ``exact=False``
    means the value starts with *prefix* and continues with runtime
    content (an f-string field, a concatenated variable, ...).
    """

    prefix: str
    exact: bool


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    module: str
    qualname: str          # "ClassName.method" or "function"
    name: str              # the simple name
    node: ast.AST = field(compare=False, hash=False, repr=False)


@dataclass(frozen=True)
class CallSite:
    """One call expression, indexed by the callee's simple name."""

    module: str
    callee: str            # last component: "foo" for a.b.foo(...)
    node: ast.Call = field(compare=False, hash=False, repr=False)
    #: innermost enclosing function, or None at module level
    enclosing: FunctionInfo | None = None


class ModuleInfo:
    """One parsed source file plus its per-module indexes.

    Attributes:
        name: dotted module name.
        path: the path findings are reported under.
        tree: parsed AST; every node carries a ``_simlint_parent`` link.
    """

    def __init__(self, name: str, path: str, source: str) -> None:
        self.name = name
        self.path = str(path)
        self.tree = ast.parse(source, filename=self.path)
        # One breadth-first walk, in ast.walk's order: link each child to
        # its parent and index every node by type.
        self._nodes: dict[type, list[ast.AST]] = {}
        self._order: dict[ast.AST, int] = {}
        todo = deque([self.tree])
        while todo:
            node = todo.popleft()
            self._order[node] = len(self._order)
            self._nodes.setdefault(type(node), []).append(node)
            for child in ast.iter_child_nodes(node):
                child._simlint_parent = node
                todo.append(child)
        # Directory components of the path, for subsystem scoping.  The
        # file's own name is excluded so ``fleet.py`` is not "in fleet".
        norm = os.path.normpath(self.path).replace(os.sep, "/")
        self._dir_parts = set(norm.split("/")[:-1])
        self.filename = norm.rsplit("/", 1)[-1]

        self.line_disables: dict[int, set[str]] = {}
        self.file_disables: set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _DISABLE_FILE_RE.match(line)
            if m:
                self.file_disables |= _parse_codes(m.group(1))
                continue
            m = _DISABLE_RE.search(line)
            if m:
                self.line_disables[lineno] = _parse_codes(m.group(1))

        #: local name -> fully qualified imported name ("x" -> "pkg.mod.x"
        #: or "pkg.mod" for module imports); repo-relative imports are
        #: resolved against this module's dotted name.
        self.imports: dict[str, str] = {}
        #: module-level NAME = "literal" string constants.
        self.constants: dict[str, str] = {}
        #: functions and methods defined here, by qualname.
        self.functions: dict[str, FunctionInfo] = {}
        self._index_imports()
        self._index_constants()
        self._index_functions()

    # -- indexing -------------------------------------------------------

    def nodes(self, *types: type) -> list[ast.AST]:
        """Every node of the given AST types, in ``ast.walk`` order."""
        if len(types) == 1:
            return self._nodes.get(types[0], [])
        return list(heapq.merge(*(self._nodes.get(t, []) for t in types),
                                key=self._order.__getitem__))

    def resolve_relative(self, module: str | None, level: int) -> str:
        """Absolute dotted module for a ``from ... import`` statement."""
        if level == 0:
            return module or ""
        # level 1 = this package, 2 = parent package, ...
        parts = self.name.split(".")
        base = parts[:-level] if level <= len(parts) else []
        if module:
            base.append(module)
        return ".".join(base)

    def _index_imports(self) -> None:
        for node in self.nodes(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.partition(".")[0]
                        self.imports[root] = root
            else:
                base = self.resolve_relative(node.module, node.level)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name)

    def _index_constants(self) -> None:
        for node in self.tree.body:
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                self.constants[node.targets[0].id] = node.value.value

    def _qualname(self, fn: ast.AST) -> str:
        """Methods are qualified by their class, nested functions by
        nothing."""
        owner = self.first_parent(fn, (ast.ClassDef, *_FUNCTION_DEFS))
        if isinstance(owner, ast.ClassDef):
            return f"{owner.name}.{fn.name}"
        return fn.name

    def _index_functions(self) -> None:
        for node in self.nodes(*_FUNCTION_DEFS):
            qual = self._qualname(node)
            self.functions[qual] = FunctionInfo(
                module=self.name, qualname=qual, name=node.name, node=node)

    # -- queries --------------------------------------------------------

    def parents(self, node: ast.AST):
        """Ancestors of *node*, innermost first."""
        while True:
            node = getattr(node, "_simlint_parent", None)
            if node is None:
                return
            yield node

    def first_parent(self, node: ast.AST, kinds) -> ast.AST | None:
        """The innermost ancestor of *node* that is one of *kinds*."""
        for parent in self.parents(node):
            if isinstance(parent, kinds):
                return parent
        return None

    def enclosing_function(self, node: ast.AST) -> FunctionInfo | None:
        """The innermost function or method around *node*."""
        fn = self.first_parent(node, _FUNCTION_DEFS)
        return None if fn is None else self.functions.get(self._qualname(fn))

    def at_module_level(self, node: ast.AST) -> bool:
        """True when *node* executes at import time (no enclosing
        function); class bodies count as module level."""
        return self.first_parent(node, (*_FUNCTION_DEFS, ast.Lambda)) is None

    def in_subsystem(self, *names: str) -> bool:
        """Whether the file sits under any of the named directories."""
        return bool(self._dir_parts & set(names))

    def is_test_file(self) -> bool:
        return (self.filename.startswith("test_")
                or self.filename == "conftest.py"
                or "tests" in self._dir_parts)

    def suppressed(self, finding) -> bool:
        codes = self.line_disables.get(finding.line, ())
        return (finding.rule in codes or "ALL" in codes
                or finding.rule in self.file_disables
                or "ALL" in self.file_disables)

    def dotted(self, node: ast.AST) -> str | None:
        """Render a Name/Attribute chain with the root expanded through
        this module's imports (``tp.emit`` -> ``repro...events.tp.emit``
        when ``tp`` was imported); None when the chain contains anything
        else (calls, subscripts, ...)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def is_set_expr(self, node: ast.AST, set_vars: set[str]) -> bool:
        """Whether *node* evaluates to a set: a set display or
        comprehension, a ``set()``/``frozenset()`` call, a set operator
        over one, or a name in *set_vars*."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self.dotted(node.func) in ("set", "frozenset")
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return (self.is_set_expr(node.left, set_vars)
                    or self.is_set_expr(node.right, set_vars))
        if isinstance(node, ast.Name):
            return node.id in set_vars
        return False

    def set_vars(self, assigns) -> set[str]:
        """Names the ``ast.Assign`` nodes in *assigns* bind to a set
        (scope-insensitive heuristic, in order)."""
        out: set[str] = set()
        for node in assigns:
            if (len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and self.is_set_expr(node.value, out)):
                out.add(node.targets[0].id)
        return out


def loop_iterables(nodes) -> list[ast.AST]:
    """The iterable of every ``for`` loop and comprehension among
    *nodes*, in order."""
    out: list[ast.AST] = []
    for node in nodes:
        if isinstance(node, ast.For):
            out.append(node.iter)
        elif isinstance(node, COMPREHENSIONS):
            out.extend(gen.iter for gen in node.generators)
    return out


class LintError(ValueError):
    """The lint could not be configured (no docs contract found, or two
    files of a whole-program run share a module name)."""


class ProgramModel:
    """Every module of one lint run, each parsed once.

    Args:
        whole_program: the model feeds the whole-program passes, which
            resolve names through :attr:`modules`; two files with the
            same dotted module name then raise :class:`LintError`
            instead of one silently shadowing the other.
    """

    def __init__(self, whole_program: bool = False) -> None:
        self.whole_program = whole_program
        #: every parsed file, in the order it was added
        self.files: list[ModuleInfo] = []
        #: the same modules by dotted name (outside a whole-program run,
        #: where nothing resolves through it, a later file shadows an
        #: earlier one of the same name)
        self.modules: dict[str, ModuleInfo] = {}
        self.call_sites: list[CallSite] = []
        self.calls_by_name: dict[str, list[CallSite]] = {}
        self.functions_by_name: dict[str, list[FunctionInfo]] = {}
        #: files that failed to parse: path -> SyntaxError
        self.parse_errors: dict[str, SyntaxError] = {}

    # -- construction ---------------------------------------------------

    @staticmethod
    def _module_name(path: str) -> str:
        """Dotted module name from the package layout on disk: walk up
        through ``__init__.py`` packages."""
        path = os.path.abspath(path)
        parts = [os.path.splitext(os.path.basename(path))[0]]
        d = os.path.dirname(path)
        while os.path.isfile(os.path.join(d, "__init__.py")):
            parts.append(os.path.basename(d))
            d = os.path.dirname(d)
        if parts[0] == "__init__":
            parts = parts[1:] or parts
        return ".".join(reversed(parts))

    def add_source(self, source: str, path: str,
                   name: str | None = None) -> None:
        """Parse *source*, reported under *path*; a file that does not
        parse is recorded in :attr:`parse_errors` instead."""
        try:
            info = ModuleInfo(name or self._module_name(path), path, source)
        except SyntaxError as exc:
            self.parse_errors[str(path)] = exc
            return
        clash = self.modules.get(info.name)
        if clash is not None and self.whole_program:
            raise LintError(
                f"{clash.path} and {info.path} are both module "
                f"{info.name!r}; the whole-program passes need one file "
                f"per module name (lint the trees separately)")
        self.files.append(info)
        self.modules[info.name] = info

    def add_file(self, path: str, display_path: str | None = None) -> None:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        self.add_source(source, display_path or str(path),
                        self._module_name(path))

    def build_indexes(self) -> None:
        """Populate the program-wide indexes after all files are added."""
        for info in self.modules.values():
            for fn in info.functions.values():
                self.functions_by_name.setdefault(fn.name, []).append(fn)
        for info in self.modules.values():
            for node in info.nodes(ast.Call):
                if isinstance(node.func, ast.Attribute):
                    callee = node.func.attr
                elif isinstance(node.func, ast.Name):
                    callee = node.func.id
                else:
                    continue
                site = CallSite(module=info.name, callee=callee, node=node,
                                enclosing=info.enclosing_function(node))
                self.call_sites.append(site)
                self.calls_by_name.setdefault(callee, []).append(site)

    # -- string provenance ----------------------------------------------

    def resolve_string(self, info: ModuleInfo,
                       node: ast.AST) -> StringVal | None:
        """Best-effort static value of a string expression.

        Handles literals, f-strings (literal head, dynamic tail),
        ``+``-concatenation, and names resolving to module-level string
        constants — including constants imported from sibling modules.
        Returns None when the expression is not string-like at all.
        """
        if isinstance(node, ast.Constant):
            return (StringVal(node.value, True)
                    if isinstance(node.value, str) else None)
        if isinstance(node, ast.JoinedStr):
            prefix: list[str] = []
            exact = True
            for part in node.values:
                if (isinstance(part, ast.Constant)
                        and isinstance(part.value, str)):
                    prefix.append(part.value)
                else:
                    exact = False
                    break
            return StringVal("".join(prefix), exact)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.resolve_string(info, node.left)
            if left is None:
                return None
            if not left.exact:
                return left
            right = self.resolve_string(info, node.right)
            if right is None:
                return StringVal(left.prefix, False)
            return StringVal(left.prefix + right.prefix, right.exact)
        if isinstance(node, ast.Name):
            return self._constant_value(info, node.id)
        if isinstance(node, ast.Attribute):
            dotted = info.dotted(node)
            if dotted is None:
                return None
            owner, _, attr = dotted.rpartition(".")
            target = self.modules.get(owner)
            if target is not None and attr in target.constants:
                return StringVal(target.constants[attr], True)
            return None
        return None

    def _constant_value(self, info: ModuleInfo,
                        local: str) -> StringVal | None:
        if local in info.constants:
            return StringVal(info.constants[local], True)
        imported = info.imports.get(local)
        if imported:
            owner, _, attr = imported.rpartition(".")
            target = self.modules.get(owner)
            if target is not None and attr in target.constants:
                return StringVal(target.constants[attr], True)
        return None
