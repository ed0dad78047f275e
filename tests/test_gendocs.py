"""gendocs: API reference generation, staleness check, docstring lint."""

from __future__ import annotations

import re
from pathlib import Path

from repro.tools.gendocs import (
    default_output_path,
    iter_module_names,
    lint_api_coverage,
    lint_module_docstrings,
    main,
    module_entries,
    render_api_markdown,
)


class TestModuleDiscovery:
    def test_covers_known_modules(self):
        names = list(iter_module_names())
        assert "repro" in names
        assert "repro.fleet.scheduler" in names
        assert "repro.sensors.dtw" in names
        assert names == sorted(names)

    def test_excludes_entry_points(self):
        # Importing repro.__main__ would sys.exit(); it must be skipped.
        assert all(
            not n.endswith("__main__") for n in iter_module_names()
        )


class TestRendering:
    def test_entries_use_all_when_declared(self):
        doc_line, entries = module_entries("repro.fleet")
        assert doc_line
        names = [n for n, _, _ in entries]
        assert "FleetScheduler" in names
        assert "FleetConfig" in names

    def test_render_is_deterministic(self):
        assert render_api_markdown() == render_api_markdown()

    def test_render_mentions_every_module(self):
        text = render_api_markdown()
        for name in iter_module_names():
            assert f"## `{name}`" in text


class TestCliModes:
    def test_lint_passes_on_this_repo(self):
        assert lint_module_docstrings() == []
        assert main(["--lint"]) == 0

    def test_committed_api_md_is_fresh(self):
        """CI's gendocs --check, as a unit test: the committed file
        must match a regeneration exactly."""
        committed = default_output_path()
        assert committed.exists(), "docs/API.md missing — run gendocs"
        assert committed.read_text() == render_api_markdown()

    def test_check_detects_staleness(self, tmp_path: Path):
        stale = tmp_path / "API.md"
        stale.write_text("# stale\n")
        assert main(["--check", "--out", str(stale)]) == 1
        assert main(["--out", str(stale)]) == 0
        assert main(["--check", "--out", str(stale)]) == 0


class TestApiCoverageLint:
    def test_committed_api_md_covers_every_module(self):
        assert lint_api_coverage() == []

    def test_flags_modules_missing_from_a_stale_file(self, tmp_path: Path):
        partial = tmp_path / "API.md"
        # A file predating the trials package entirely.
        partial.write_text("# API reference\n\n## `repro`\n")
        missing = lint_api_coverage(partial)
        assert "repro.trials" in missing
        assert "repro.trials.judges" in missing
        assert "repro" not in missing

    def test_lint_mode_fails_on_uncovered_file(self, tmp_path: Path):
        partial = tmp_path / "API.md"
        partial.write_text("# API reference\n")
        assert main(["--lint", "--out", str(partial)]) == 1
        assert main(["--out", str(partial)]) == 0
        assert main(["--lint", "--out", str(partial)]) == 0


class TestProseMatchesArtifacts:
    ROOT = Path(__file__).resolve().parents[1]

    def test_congestion_report_flags_quoted_correctly(self):
        """Every ``--flag value`` quoted in a paragraph that names
        docs/CONGESTION_REPORT.md must match the command it ran."""
        report = (self.ROOT / "docs" / "CONGESTION_REPORT.md").read_text()
        command = re.search(r"python -m repro fleet run [^\n]*", report).group(0)
        ran = dict(re.findall(r"--([a-z-]+) ([0-9.]+)", command))
        quoted = []
        for doc in ("DESIGN.md", "EXPERIMENTS.md"):
            for paragraph in (self.ROOT / doc).read_text().split("\n\n"):
                if "CONGESTION_REPORT.md" in paragraph:
                    quoted += re.findall(r"--([a-z-]+)\s+([0-9.]+)", paragraph)
        assert quoted, "no flags quoted next to the report"
        for flag, value in quoted:
            assert flag in ran and float(value) == float(ran[flag]), (flag, value)
