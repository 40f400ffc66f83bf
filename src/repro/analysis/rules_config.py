"""RL004 — config drift between config dataclasses, the CLI, README.

Every field of a user-facing config dataclass is a promise three times
over: as a dataclass field, as a CLI flag, and as documentation.  The
three surfaces drift independently — a field added without a flag is
unreachable from the command line, a flag without a field crashes at
dispatch, and an undocumented knob may as well not exist.  This rule
pins each (config class, subparser) pair together:

* every config field must be settable from its subparser (a flag of
  the same name, modulo the pin's aliases);
* every subparser flag (minus the pin's I/O flags that are not
  config) must map to a field;
* every field name must be mentioned in the README.

Flag → field matching: ``--foo-bar`` ↔ ``foo_bar``; ``--no-X`` ↔ ``X``
(boolean inverts); plus per-pin historical aliases (renaming a
deployed flag would break every script using it, so the linter knows
the old spellings instead).

The pinned pairs are listed in :data:`PINS`; a pin whose config class
does not exist in the project is skipped, so the rule ports to any
project shape.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.engine import Finding, ModuleSource, Project, Rule


@dataclass(frozen=True)
class ConfigPin:
    """One (config dataclass, CLI subparser) pair the rule keeps in sync."""

    config_class: str
    subparser: str
    #: Historical flag names that predate their field's spelling.
    flag_aliases: dict[str, str] = field(default_factory=dict)
    #: Subparser flags that are I/O plumbing, not configuration.
    non_config_flags: frozenset[str] = frozenset()


#: The ``enrich`` flags whose names predate their config field's spelling
#: (kept as a module constant: it documents the project's flag history).
FLAG_ALIASES: dict[str, str] = {
    "candidates": "n_candidates",
    "top_k": "top_k_positions",
    "max_contexts": "max_contexts_per_term",
}

#: The pinned (config class, subparser) pairs of this project.
PINS: tuple[ConfigPin, ...] = (
    ConfigPin(
        config_class="EnrichmentConfig",
        subparser="enrich",
        flag_aliases=FLAG_ALIASES,
        non_config_flags=frozenset({"ontology", "corpus", "timings"}),
    ),
    ConfigPin(
        config_class="RecommendConfig",
        subparser="recommend",
        non_config_flags=frozenset(
            {"ontology", "text", "scenario", "format"}
        ),
    ),
)


def _config_fields(
    project: Project, config_class: str
) -> tuple[ModuleSource, dict[str, int]] | None:
    """``(module, field -> line)`` of the pin's config dataclass."""
    for module in project.modules:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name == config_class
            ):
                fields = {
                    stmt.target.id: stmt.lineno
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not stmt.target.id.startswith("_")
                }
                return module, fields
    return None


def _subparser_flags(
    module: ModuleSource, subparser: str
) -> dict[str, int]:
    """``normalised flag -> line`` of the subparser's arguments.

    The subparser is recognised structurally: any variable assigned
    from ``<x>.add_parser("<subparser>", ...)`` collects the
    ``add_argument`` calls made on it.
    """
    parser_vars: set[str] = set()
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "add_parser"
            and value.args
            and isinstance(value.args[0], ast.Constant)
            and value.args[0].value == subparser
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    parser_vars.add(target.id)
    flags: dict[str, int] = {}
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in parser_vars
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and node.args[0].value.startswith("--")
        ):
            flag = node.args[0].value.lstrip("-").replace("-", "_")
            flags[flag] = node.lineno
    return flags


def _flag_to_field(
    flag: str, fields: dict[str, int], pin: ConfigPin
) -> str | None:
    """The config field ``flag`` reaches, or None."""
    if flag in pin.flag_aliases:
        return pin.flag_aliases[flag]
    if flag in fields:
        return flag
    if flag.startswith("no_") and flag[3:] in fields:
        return flag[3:]  # --no-X inverts boolean field X
    return None


class ConfigDriftRule(Rule):
    rule_id = "RL004"
    title = "config drift"
    hint = (
        "keep config dataclass fields, their CLI subparser, and the "
        "README in lockstep: add the missing flag/field/mention (see "
        "PINS in rules_config.py for the pinned pairs and historical "
        "flag spellings)"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        for pin in PINS:
            yield from self._check_pin(project, pin)

    def _check_pin(
        self, project: Project, pin: ConfigPin
    ) -> Iterator[Finding]:
        located = _config_fields(project, pin.config_class)
        if located is None:
            return  # pin's config class absent here: nothing to pin
        config_module, fields = located
        cli_module = None
        for module in project.modules:
            if module.relpath.endswith("cli.py"):
                cli_module = module
                break
        if cli_module is None:
            yield self.finding(
                config_module,
                1,
                f"{pin.config_class} exists but no cli.py module does; "
                "fields are unreachable from any command line",
            )
            return
        flags = _subparser_flags(cli_module, pin.subparser)
        reachable_fields = {
            _flag_to_field(flag, fields, pin) for flag in flags
        }

        for name, line in sorted(fields.items()):
            if name not in reachable_fields:
                yield self.finding(
                    config_module,
                    line,
                    f"{pin.config_class}.{name} has no corresponding "
                    f"'{pin.subparser}' CLI flag (field is unreachable "
                    "from the command line)",
                )
            readme = project.readme_text
            if readme is None or not re.search(
                rf"\b{re.escape(name)}\b", readme
            ):
                yield self.finding(
                    config_module,
                    line,
                    f"{pin.config_class}.{name} is not mentioned in "
                    "README.md",
                    hint="document the field (the README config table)",
                )

        for flag, line in sorted(flags.items()):
            if flag in pin.non_config_flags:
                continue
            if _flag_to_field(flag, fields, pin) is None:
                yield self.finding(
                    cli_module,
                    line,
                    f"'{pin.subparser}' flag --{flag.replace('_', '-')} "
                    f"maps to no {pin.config_class} field",
                )
