"""The lint engine: project model, pragmas, baseline, and the runner.

The engine is deliberately small: it loads every ``src/`` module (and
the ``tests/`` modules some rules cross-reference) into a
:class:`Project`, hands that to each :class:`Rule`, and post-processes
the raw findings through two suppression layers:

* **pragmas** — a ``# repro-lint: disable=RL001`` comment on the
  flagged line silences that rule there; anything after the rule ids
  is a free-form justification (and writing one is the convention);
* **baseline** — a JSON file of grandfathered findings matched by
  ``(rule, path, message)`` (line numbers are ignored so unrelated
  edits above a finding do not resurrect it).

Everything is stdlib-only (``ast`` + ``json``), so the linter runs in
every environment the library itself runs in.
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ValidationError

__all__ = [
    "Finding",
    "LintResult",
    "ModuleSource",
    "Project",
    "Rule",
    "default_rules",
    "lint_project",
    "load_baseline",
    "render_json",
    "render_text",
    "save_baseline",
]

#: ``# repro-lint: disable=RL001,RL002 - optional justification``
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)"
)

#: Rule id of a module that does not parse (every other rule needs the
#: AST, so a syntax error is itself a finding rather than a crash).
PARSE_ERROR_RULE = "RL000"

#: Directory names whose modules are never linted: rule fixtures are
#: *deliberately* in violation.
_EXCLUDED_DIR_NAMES = frozenset({"fixtures", "__pycache__"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str  #: repo-relative posix path
    line: int
    message: str
    hint: str = ""

    @property
    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used for baseline matching (line numbers excluded)."""
        return (self.rule, self.path, self.message)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready representation (the ``--format json`` shape)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "hint": self.hint,
        }


class ModuleSource:
    """One parsed source module: path, text, lines, AST, pragmas."""

    def __init__(self, path: Path, relpath: str, text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.lines: list[str] = text.splitlines()
        self.parse_error: SyntaxError | None = None
        try:
            self.tree: ast.Module = ast.parse(text)
        except SyntaxError as exc:
            self.parse_error = exc
            self.tree = ast.Module(body=[], type_ignores=[])
        self._pragmas: dict[int, frozenset[str]] | None = None

    def pragmas(self) -> dict[int, frozenset[str]]:
        """``line number -> rule ids disabled on that line`` (1-based)."""
        if self._pragmas is None:
            found: dict[int, frozenset[str]] = {}
            for number, line in enumerate(self.lines, start=1):
                match = _PRAGMA_RE.search(line)
                if match is not None:
                    rules = frozenset(
                        part.strip() for part in match.group(1).split(",")
                    )
                    found[number] = rules
            self._pragmas = found
        return self._pragmas

    def suppressed(self, rule: str, line: int) -> bool:
        """True when a pragma on ``line`` disables ``rule``."""
        return rule in self.pragmas().get(line, frozenset())


class Project:
    """The lintable universe: src modules, test modules, README text."""

    def __init__(
        self,
        root: Path,
        modules: Sequence[ModuleSource],
        test_modules: Sequence[ModuleSource] = (),
        readme_text: str | None = None,
    ) -> None:
        self.root = root
        self.modules = list(modules)
        self.test_modules = list(test_modules)
        self.readme_text = readme_text

    @classmethod
    def load(cls, root: str | Path) -> "Project":
        """Load ``root/src/**/*.py`` + ``root/tests/*.py`` + README.

        Anything under a ``fixtures`` directory is skipped on both
        sides: rule fixtures are deliberately in violation.
        """
        root = Path(root).resolve()
        src = root / "src"
        if not src.is_dir():
            raise ValidationError(f"no src/ directory under {root}")
        modules = [
            _read_module(root, path) for path in _python_files(src)
        ]
        tests_dir = root / "tests"
        test_modules = (
            [_read_module(root, path) for path in _python_files(tests_dir)]
            if tests_dir.is_dir()
            else []
        )
        readme = root / "README.md"
        readme_text = (
            readme.read_text(encoding="utf-8") if readme.is_file() else None
        )
        return cls(root, modules, test_modules, readme_text)

    def find_module(self, suffix: str) -> ModuleSource | None:
        """The unique src module whose relpath ends with ``suffix``."""
        matches = [
            module
            for module in self.modules
            if module.relpath.endswith(suffix)
        ]
        return matches[0] if len(matches) == 1 else None


def _python_files(directory: Path) -> list[Path]:
    # Exclusion is *relative to the scanned directory*: a project that
    # itself lives under a fixtures/ directory (the lint test fixtures
    # do) must still see its own modules.
    return sorted(
        path
        for path in directory.rglob("*.py")
        if not _EXCLUDED_DIR_NAMES.intersection(
            path.relative_to(directory).parts
        )
    )


def _read_module(root: Path, path: Path) -> ModuleSource:
    relpath = path.relative_to(root).as_posix()
    return ModuleSource(path, relpath, path.read_text(encoding="utf-8"))


class Rule:
    """Base class of every lint rule.

    Subclasses set :attr:`rule_id`/:attr:`title`/:attr:`hint` and
    implement :meth:`check`, yielding raw findings; pragma and baseline
    filtering happen in the engine, not in rules.
    """

    rule_id: str = "RL999"
    title: str = ""
    hint: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleSource, line: int, message: str,
        hint: str | None = None,
    ) -> Finding:
        """Construct a finding anchored in ``module``."""
        return Finding(
            rule=self.rule_id,
            path=module.relpath,
            line=line,
            message=message,
            hint=self.hint if hint is None else hint,
        )


@dataclass
class LintResult:
    """Outcome of one lint run after pragma/baseline filtering."""

    findings: list[Finding] = field(default_factory=list)  #: new findings
    suppressed: int = 0  #: pragma-silenced findings
    baselined: int = 0  #: grandfathered findings

    @property
    def clean(self) -> bool:
        """True when no *new* findings remain."""
        return not self.findings


def default_rules() -> list[Rule]:
    """Fresh instances of every shipped rule, id order."""
    # Imported here so ``engine`` stays import-cycle-free (rules import
    # the engine's base classes).
    from repro.analysis.rules_codec import CodecPairingRule
    from repro.analysis.rules_config import ConfigDriftRule
    from repro.analysis.rules_degrade import DegradeToMissRule
    from repro.analysis.rules_locks import LockDisciplineRule

    return [
        LockDisciplineRule(),
        DegradeToMissRule(),
        CodecPairingRule(),
        ConfigDriftRule(),
    ]


def _parse_error_findings(project: Project) -> Iterator[Finding]:
    for module in project.modules:
        if module.parse_error is not None:
            yield Finding(
                rule=PARSE_ERROR_RULE,
                path=module.relpath,
                line=module.parse_error.lineno or 1,
                message=f"module does not parse: {module.parse_error.msg}",
                hint="fix the syntax error; every other rule needs the AST",
            )


def lint_project(
    root: str | Path,
    *,
    rules: Sequence[Rule] | None = None,
    baseline: set[tuple[str, str, str]] | None = None,
    project: Project | None = None,
) -> LintResult:
    """Run ``rules`` over the project at ``root``; filtered result.

    ``baseline`` holds grandfathered :attr:`Finding.baseline_key`
    identities (see :func:`load_baseline`); pass ``project`` to reuse
    an already-loaded tree (tests do).
    """
    if project is None:
        project = Project.load(root)
    if rules is None:
        rules = default_rules()
    modules_by_path = {module.relpath: module for module in project.modules}
    raw: list[Finding] = list(_parse_error_findings(project))
    for rule in rules:
        raw.extend(rule.check(project))
    raw.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    result = LintResult()
    for finding in raw:
        module = modules_by_path.get(finding.path)
        if module is not None and module.suppressed(
            finding.rule, finding.line
        ):
            result.suppressed += 1
        elif baseline and finding.baseline_key in baseline:
            result.baselined += 1
        else:
            result.findings.append(finding)
    return result


# -- baseline ---------------------------------------------------------------

_BASELINE_VERSION = 1


def load_baseline(path: str | Path) -> set[tuple[str, str, str]]:
    """The grandfathered finding identities stored at ``path``."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValidationError(f"unreadable baseline {path}: {exc}") from exc
    if (
        not isinstance(document, dict)
        or document.get("version") != _BASELINE_VERSION
        or not isinstance(document.get("findings"), list)
    ):
        raise ValidationError(
            f"baseline {path} is not a version-{_BASELINE_VERSION} "
            "repro-lint baseline"
        )
    baseline: set[tuple[str, str, str]] = set()
    for entry in document["findings"]:
        if not isinstance(entry, dict):
            raise ValidationError(f"malformed baseline entry: {entry!r}")
        try:
            baseline.add(
                (
                    str(entry["rule"]),
                    str(entry["path"]),
                    str(entry["message"]),
                )
            )
        except KeyError as exc:
            raise ValidationError(
                f"baseline entry missing {exc}: {entry!r}"
            ) from exc
    return baseline


def save_baseline(findings: Iterable[Finding], path: str | Path) -> None:
    """Persist ``findings`` as a baseline file (sorted, stable)."""
    entries = sorted(
        {
            (f.rule, f.path, f.message)
            for f in findings
        }
    )
    document = {
        "version": _BASELINE_VERSION,
        "findings": [
            {"rule": rule, "path": relpath, "message": message}
            for rule, relpath, message in entries
        ],
    }
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


# -- output -----------------------------------------------------------------


def render_text(result: LintResult) -> str:
    """Human-readable report (the default ``repro lint`` output)."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}: {finding.rule} "
            f"{finding.message}"
        )
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    summary = (
        f"{len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed by pragma, "
        f"{result.baselined} baselined"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Machine-readable report (``repro lint --format json``)."""
    document = {
        "findings": [finding.to_dict() for finding in result.findings],
        "suppressed": result.suppressed,
        "baselined": result.baselined,
        "clean": result.clean,
    }
    return json.dumps(document, indent=2, sort_keys=True)
