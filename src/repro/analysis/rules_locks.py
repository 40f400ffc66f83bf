"""RL001 — lock discipline in lock-owning classes.

A class that creates a ``threading.Lock``/``RLock`` (or a list of
them) owns mutable state that more than one thread touches; the whole
point of the lock is that **every** write to that state happens while
holding it.  The race regressions that bit the service layer (counter
writes outside the counter lock) all had the same shape: an attribute
write, lexically outside any ``with self._lock:`` block, in a method a
caller can reach without the lock.

The rule reconstructs exactly that:

1. **Lock attributes** are ``self.X`` assignments whose value contains
   a ``Lock()``/``RLock()``/``Condition()`` call (a list comprehension
   of locks counts, covering lock-sharded designs).
2. **Writes** are assignments/augmented assignments to ``self.attr``
   or ``self.attr[...]`` in any method.  A write is *protected* when
   it is lexically inside a ``with`` statement whose context manager
   is one of the class's lock attributes (``self._lock`` or
   ``self._locks[i]``).
3. **Reachability**: public methods (and non-constructor dunders) are
   entry points that run without the lock.  A private helper "may run
   unlocked" only if some call site of it is itself unprotected inside
   a method that may run unlocked — computed as a fixpoint over the
   intra-class ``self.method()`` call graph, so helpers that are only
   ever invoked under the lock (``_maybe_evict`` called from a locked
   ``put``) are never false positives.

Escapes, in preference order: move the write under the lock; suffix
the helper ``_locked`` (the project convention for "caller holds the
lock" — such methods are trusted and skipped); or pragma the line with
a justification.

Constructor-phase methods (``__init__``, ``__new__``,
``__setstate__``, ``__post_init__``, ``__del__``) are exempt: no other
thread holds the object yet (or still).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.engine import Finding, ModuleSource, Project, Rule

#: Callables whose result is a lock-like synchronisation primitive.
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition"})

#: Methods that run before (or after) the object is shared between
#: threads; writes there need no lock, and calls *from* there do not
#: make a helper reachable-unlocked.
_CONSTRUCTOR_METHODS = frozenset(
    {"__init__", "__new__", "__setstate__", "__post_init__", "__del__"}
)


def _is_lock_factory_call(node: ast.AST) -> bool:
    """True when ``node`` contains a ``Lock()``-like call anywhere."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _LOCK_FACTORIES:
                return True
    return False


def _self_attribute(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _written_self_attrs(target: ast.AST) -> Iterator[tuple[str, int]]:
    """``(attr, line)`` for every self-attribute a target writes.

    Covers ``self.a = ...``, ``self.a, self.b = ...``,
    ``self.a[i] = ...`` (the container the lock protects is still
    ``self.a``), and starred targets.
    """
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _written_self_attrs(element)
        return
    if isinstance(target, ast.Starred):
        yield from _written_self_attrs(target.value)
        return
    attr = _self_attribute(target)
    if attr is not None:
        yield attr, target.lineno
        return
    if isinstance(target, ast.Subscript):
        attr = _self_attribute(target.value)
        if attr is not None:
            yield attr, target.lineno


@dataclass
class _MethodFacts:
    """What one method does, annotated with lock context."""

    name: str
    #: ``(attr, line, protected)`` per self-attribute write.
    writes: list[tuple[str, int, bool]] = field(default_factory=list)
    #: ``(callee, protected)`` per ``self.callee(...)`` call site.
    calls: list[tuple[str, bool]] = field(default_factory=list)


class _MethodScanner(ast.NodeVisitor):
    """Collect writes and intra-class calls with their lock context."""

    def __init__(self, lock_attrs: frozenset[str]) -> None:
        self._lock_attrs = lock_attrs
        self._depth = 0  # nesting depth of with-lock blocks
        self.facts: list[tuple[str, int, bool]] = []
        self.calls: list[tuple[str, bool]] = []

    def _locks_in_with(self, node: ast.With) -> bool:
        for item in node.items:
            expr = item.context_expr
            # ``with self._lock:`` / ``with self._locks[shard]:``
            attr = _self_attribute(expr)
            if attr is None and isinstance(expr, ast.Subscript):
                attr = _self_attribute(expr.value)
            if attr is not None and attr in self._lock_attrs:
                return True
        return False

    def visit_With(self, node: ast.With) -> None:
        if self._locks_in_with(node):
            self._depth += 1
            self.generic_visit(node)
            self._depth -= 1
        else:
            self.generic_visit(node)

    def _record_targets(self, targets: list[ast.AST]) -> None:
        protected = self._depth > 0
        for target in targets:
            for attr, line in _written_self_attrs(target):
                self.facts.append((attr, line, protected))

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_targets(list(node.targets))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_targets([node.target])
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_targets([node.target])
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = None
        if isinstance(node.func, ast.Attribute):
            callee = _self_attribute(node.func)
        if callee is not None:
            self.calls.append((callee, self._depth > 0))
        self.generic_visit(node)


def _class_methods(
    node: ast.ClassDef,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    return [
        stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


class LockDisciplineRule(Rule):
    rule_id = "RL001"
    title = "lock discipline"
    hint = (
        "move the write inside 'with self.<lock>:', rename the helper "
        "with a _locked suffix if every caller already holds the lock, "
        "or pragma the line with a justification"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleSource, node: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = _class_methods(node)
        lock_attrs = frozenset(
            attr
            for method in methods
            for stmt in ast.walk(method)
            if isinstance(stmt, (ast.Assign, ast.AnnAssign))
            and stmt.value is not None
            and _is_lock_factory_call(stmt.value)
            for target in (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for attr, _ in _written_self_attrs(target)
        )
        if not lock_attrs:
            return

        facts: dict[str, _MethodFacts] = {}
        for method in methods:
            scanner = _MethodScanner(lock_attrs)
            for stmt in method.body:
                scanner.visit(stmt)
            facts[method.name] = _MethodFacts(
                name=method.name,
                writes=scanner.facts,
                calls=scanner.calls,
            )

        may_run_unlocked = {
            name
            for name in facts
            if name not in _CONSTRUCTOR_METHODS
            and not name.endswith("_locked")
            and (not name.startswith("_") or _is_dunder(name))
        }
        # Fixpoint: a private helper may run unlocked when an
        # unprotected call site of it lives in a method that itself may
        # run unlocked.
        changed = True
        while changed:
            changed = False
            for name in may_run_unlocked.copy():
                for callee, protected in facts[name].calls:
                    if (
                        not protected
                        and callee in facts
                        and callee not in may_run_unlocked
                        and callee not in _CONSTRUCTOR_METHODS
                        and not callee.endswith("_locked")
                    ):
                        may_run_unlocked.add(callee)
                        changed = True

        lock_names = " or ".join(
            f"self.{name}" for name in sorted(lock_attrs)
        )
        for name in sorted(may_run_unlocked):
            for attr, line, protected in facts[name].writes:
                if protected or attr in lock_attrs:
                    continue
                yield self.finding(
                    module,
                    line,
                    f"{node.name}.{name} writes self.{attr} without "
                    f"holding {lock_names} (reachable from a public "
                    "method)",
                )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")
