"""The repro.analysis lint engine: rules, pragmas, baseline, CLI.

Each RL rule is demonstrated against a mini-project fixture under
``tests/fixtures/lint/<rule>/`` that seeds deliberate violations next
to the clean patterns the rule must *not* flag; the engine-level tests
cover pragma suppression, baseline round-trips, the JSON report shape,
and the CLI exit codes.  Finally, the repository lints itself with an
empty baseline — the gate CI enforces.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    lint_project,
    load_baseline,
    render_json,
    render_text,
    save_baseline,
)
from repro.cli import main as cli_main
from repro.errors import ValidationError

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parents[1]


def findings_for(case, **kwargs):
    return lint_project(FIXTURES / case, **kwargs)


def by_rule(result, rule):
    return [f for f in result.findings if f.rule == rule]


class TestLockDiscipline:
    def test_seeded_violations_are_caught(self):
        result = findings_for("rl001")
        found = by_rule(result, "RL001")
        messages = [f.message for f in found]
        assert len(found) == 2
        assert any(
            "Counter.bump writes self._count" in m for m in messages
        )
        assert any(
            "Counter._helper writes self._note" in m for m in messages
        )

    def test_clean_patterns_are_not_flagged(self):
        result = findings_for("rl001")
        text = render_text(result)
        # Guarded write, _locked helper, lock-free class: all clean.
        assert "bump_safely" not in text
        assert "_apply_locked" not in text
        assert "Plain" not in text

    def test_findings_carry_location_and_hint(self):
        finding = by_rule(findings_for("rl001"), "RL001")[0]
        assert finding.path == "src/locked.py"
        assert finding.line > 0
        assert "_locked suffix" in finding.hint


class TestDegradeToMiss:
    def test_swallowed_network_error_is_caught(self):
        found = by_rule(findings_for("rl002"), "RL002")
        assert len(found) == 1
        assert found[0].message.startswith("except handler for (OSError)")

    def test_accounted_escalated_teardown_and_pragma_pass(self):
        result = findings_for("rl002")
        assert result.suppressed == 1  # fetch_pragma's disable=RL002
        lines = {f.line for f in by_rule(result, "RL002")}
        text = (FIXTURES / "rl002" / "src" / "net.py").read_text()
        for marker in ("self.failures += 1", "raise", "sock.close()"):
            offending = next(
                i
                for i, line in enumerate(text.splitlines(), start=1)
                if marker in line
            )
            assert all(abs(line - offending) > 1 for line in lines)


class TestCodecPairing:
    def test_orphan_and_untested_codecs_are_caught(self):
        found = by_rule(findings_for("rl003"), "RL003")
        messages = [f.message for f in found]
        assert len(found) == 3
        assert any(
            "encode_foo has no decode_foo counterpart" in m
            for m in messages
        )
        assert any(
            "encode_baz is not exercised" in m for m in messages
        )
        assert any(
            "decode_baz is not exercised" in m for m in messages
        )

    def test_tested_pair_and_unsuffixed_encode_pass(self):
        text = render_text(findings_for("rl003"))
        assert "encode_bar" not in text
        assert "decode_bar" not in text
        # encode_foo appears only for its missing counterpart, and the
        # suffixless encode() is outside the convention entirely.
        assert "codec function encode_foo is not exercised" not in text
        assert "encode has no" not in text


class TestConfigDrift:
    def test_all_three_drift_directions_are_caught(self):
        found = by_rule(findings_for("rl004"), "RL004")
        messages = [f.message for f in found]
        assert len(found) == 3
        assert any(
            "EnrichmentConfig.beta has no corresponding 'enrich'" in m
            for m in messages
        )
        assert any(
            "EnrichmentConfig.gamma is not mentioned in README.md" in m
            for m in messages
        )
        assert any(
            "flag --delta maps to no EnrichmentConfig field" in m
            for m in messages
        )

    def test_aliases_inversions_and_io_flags_pass(self):
        text = render_text(findings_for("rl004"))
        assert "alpha" not in text  # flagged + documented
        assert "flip" not in text  # reached via --no-flip inversion
        assert "ontology" not in text  # I/O plumbing is exempt
        assert "unrelated" not in text  # other subparser ignored


class TestEngine:
    def test_baseline_roundtrip_grandfathers_findings(self, tmp_path):
        first = findings_for("rl001")
        assert not first.clean
        baseline_path = tmp_path / "baseline.json"
        save_baseline(first.findings, baseline_path)
        second = findings_for(
            "rl001", baseline=load_baseline(baseline_path)
        )
        assert second.clean
        assert second.baselined == len(first.findings)

    def test_baseline_matches_by_identity_not_line(self, tmp_path):
        first = findings_for("rl001")
        baseline_path = tmp_path / "baseline.json"
        save_baseline(first.findings, baseline_path)
        baseline = load_baseline(baseline_path)
        shifted = Finding(
            rule=first.findings[0].rule,
            path=first.findings[0].path,
            line=first.findings[0].line + 40,  # unrelated edits above
            message=first.findings[0].message,
        )
        assert shifted.baseline_key in baseline

    def test_malformed_baseline_is_a_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValidationError):
            load_baseline(bad)
        bad.write_text("not json")
        with pytest.raises(ValidationError):
            load_baseline(bad)

    def test_missing_src_is_a_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            lint_project(tmp_path)

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "broken.py").write_text("def oops(:\n")
        result = lint_project(tmp_path)
        assert [f.rule for f in result.findings] == ["RL000"]
        assert "does not parse" in result.findings[0].message

    def test_render_json_shape(self):
        document = json.loads(render_json(findings_for("rl002")))
        assert set(document) == {
            "findings", "suppressed", "baselined", "clean",
        }
        assert document["suppressed"] == 1
        assert document["clean"] is False
        (finding,) = document["findings"]
        assert set(finding) == {"rule", "path", "line", "message", "hint"}
        assert finding["rule"] == "RL002"
        assert finding["path"] == "src/net.py"

    def test_findings_are_sorted_and_summarised(self):
        result = findings_for("rl003")
        keys = [(f.path, f.line, f.rule) for f in result.findings]
        assert keys == sorted(keys)
        assert render_text(result).splitlines()[-1] == (
            "3 finding(s), 0 suppressed by pragma, 0 baselined"
        )


class TestCli:
    def test_exit_one_on_findings_zero_when_baselined(
        self, tmp_path, capsys
    ):
        root = str(FIXTURES / "rl001")
        assert cli_main(["lint", "--root", root]) == 1
        baseline = tmp_path / "baseline.json"
        assert (
            cli_main(
                ["lint", "--root", root, "--write-baseline", str(baseline)]
            )
            == 0
        )
        assert (
            cli_main(
                ["lint", "--root", root, "--baseline", str(baseline)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "2 baselined" in out

    def test_json_format_and_usage_errors(self, tmp_path, capsys):
        root = str(FIXTURES / "rl002")
        assert cli_main(["lint", "--root", root, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["clean"] is False
        assert cli_main(["lint", "--root", str(tmp_path)]) == 2
        assert "no src/ directory" in capsys.readouterr().err

    def test_repository_is_clean_with_no_baseline(self, capsys):
        assert cli_main(["lint", "--root", str(REPO_ROOT)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
