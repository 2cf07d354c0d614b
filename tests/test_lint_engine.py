"""Engine, suppression, and CLI tests for reprolint.

Covers the machinery around the rules (which are fixture-tested in
``test_lint_rules.py``): module resolution, the single-parse dispatch
guarantee, ``# repro: allow[CODE]`` suppressions (the one way to accept a
finding), the JSON report schema, and CLI exit codes.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Engine,
    Finding,
    iter_python_files,
    main,
    module_name_for,
)
from repro.analysis.lint.cli import JSON_SCHEMA_VERSION
from repro.analysis.lint.engine import PARSE_ERROR_CODE

BAD_RNG = "import random\nx = random.random()\n"


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


class TestModuleResolution:
    def test_resolves_under_src_layout(self, tmp_path):
        path = write(tmp_path, "src/repro/core/cache.py", "")
        assert module_name_for(path) == "repro.core.cache"

    def test_package_init_maps_to_package(self, tmp_path):
        path = write(tmp_path, "src/repro/core/__init__.py", "")
        assert module_name_for(path) == "repro.core"

    def test_anchors_at_last_repro_component(self, tmp_path):
        path = write(tmp_path, "work/repro/x/src/repro/utils/rng.py", "")
        assert module_name_for(path) == "repro.utils.rng"

    def test_none_outside_repro_tree(self, tmp_path):
        path = write(tmp_path, "scripts/tool.py", "")
        assert module_name_for(path) is None


class TestFileDiscovery:
    def test_sorted_and_skips_pycache_and_dot_dirs(self, tmp_path):
        write(tmp_path, "b.py", "")
        write(tmp_path, "a.py", "")
        write(tmp_path, "__pycache__/c.py", "")
        write(tmp_path, ".hidden/d.py", "")
        write(tmp_path, "notes.txt", "")
        names = [p.name for p in iter_python_files([tmp_path])]
        assert names == ["a.py", "b.py"]

    def test_single_file_path_accepted(self, tmp_path):
        path = write(tmp_path, "only.py", "")
        assert list(iter_python_files([path])) == [path]


class TestSingleParse:
    def test_each_file_parsed_exactly_once(self, tmp_path, monkeypatch):
        """The engine indexes once and dispatches all rules off the index.
        The only other parses are of the vocabulary files the rules read
        (this fixture tree has none, so the linter's own), once a run."""
        clock = "import time\nt = time.time()\n"
        write(tmp_path, "src/repro/core/a.py", BAD_RNG)
        write(tmp_path, "src/repro/core/b.py", clock)
        calls = []
        real_parse = ast.parse
        monkeypatch.setattr(
            ast, "parse", lambda *a, **kw: calls.append(a) or real_parse(*a, **kw))
        report = Engine().lint_paths([tmp_path])
        assert report.files_scanned == 2
        sources = [call[0] for call in calls]
        assert sources.count(BAD_RNG) == sources.count(clock) == 1
        vocabularies = [s for s in sources if s not in (BAD_RNG, clock)]
        assert len(vocabularies) == len(set(vocabularies)) <= 3
        assert {f.code for f in report.findings} == {"DET001", "DET002"}


class TestSuppression:
    def test_inline_allow_suppresses_named_code(self, tmp_path):
        path = write(tmp_path, "src/repro/core/x.py",
                     "import random\n"
                     "x = random.random()  # repro: allow[DET001]\n")
        findings, suppressed = Engine().lint_file(path)
        assert findings == []
        assert [f.code for f in suppressed] == ["DET001"]

    def test_allow_list_and_wildcard(self, tmp_path):
        path = write(tmp_path, "src/repro/core/x.py",
                     "import random, time\n"
                     "a = random.random()  # repro: allow[DET001, DET002]\n"
                     "b = time.time()  # repro: allow[*]\n")
        findings, suppressed = Engine().lint_file(path)
        assert findings == []
        assert sorted(f.code for f in suppressed) == ["DET001", "DET002"]

    def test_allow_for_other_code_does_not_suppress(self, tmp_path):
        path = write(tmp_path, "src/repro/core/x.py",
                     "import random\n"
                     "x = random.random()  # repro: allow[DET002]\n")
        findings, _ = Engine().lint_file(path)
        assert [f.code for f in findings] == ["DET001"]

    def test_allow_only_covers_its_own_line(self, tmp_path):
        path = write(tmp_path, "src/repro/core/x.py",
                     "import random  # repro: allow[DET001]\n"
                     "x = random.random()\n")
        findings, _ = Engine().lint_file(path)
        assert [f.code for f in findings] == ["DET001"]


class TestParseErrors:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        path = write(tmp_path, "src/repro/core/x.py", "def broken(:\n")
        findings, _ = Engine().lint_file(path)
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]


class TestCli:
    @pytest.fixture()
    def dirty_tree(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "src/repro/core/x.py", BAD_RNG)
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "src/repro/core/x.py", "x = 1\n")
        assert main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_unsuppressed_finding_exits_one(self, dirty_tree, capsys):
        assert main(["src"]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_waived_finding_exits_zero(self, dirty_tree, capsys):
        write(dirty_tree, "src/repro/core/x.py",
              "import random\nx = random.random()  # repro: allow[DET001]\n")
        assert main(["src"]) == 0
        assert "0 finding(s), 1 suppressed" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--baseline", "b.json"],
                                      ["--write-baseline"]],
                             ids=["baseline", "write-baseline"])
    def test_baseline_flags_are_usage_errors(self, dirty_tree, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["src", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not Path("b.json").exists()
        assert not Path("lint_baseline.json").exists()

    def test_a_baseline_file_accepts_nothing(self, dirty_tree, capsys):
        """A ``lint_baseline.json`` in the working directory listing the
        finding is not read: it still fails the gate."""
        (finding,), _ = Engine().lint_file(Path("src/repro/core/x.py"))
        key = f"{finding.path}::{finding.code}::{finding.message}"
        Path("lint_baseline.json").write_text(
            json.dumps({"version": 1, "entries": {key: 1}}), encoding="utf-8")
        assert main(["src"]) == 1
        assert "1 finding(s), 0 suppressed" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["no/such/dir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules_prints_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET001", "DET002", "DET003", "DET004",
                     "WAL001", "WAL002", "ARCH001", "ARCH002"):
            assert code in out


class TestJsonReport:
    def _payload(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "src/repro/core/x.py",
              "import random, time\n"
              "a = random.random()\n"
              "b = time.time()  # repro: allow[DET002]\n")
        assert main(["src", "--format", "json",
                     "--out", "report.json"]) == 1
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(Path("report.json").read_text("utf-8"))
        assert stdout_payload == file_payload
        return stdout_payload

    def test_schema(self, tmp_path, monkeypatch, capsys):
        payload = self._payload(tmp_path, monkeypatch, capsys)
        assert payload["schema_version"] == JSON_SCHEMA_VERSION
        assert payload["files_scanned"] == 1
        assert payload["schema_version"] == 2
        assert set(payload) == {"schema_version", "files_scanned", "rules",
                                "counts", "by_code", "findings", "suppressed"}
        assert payload["counts"] == {"findings": 1, "suppressed": 1}
        assert payload["by_code"] == {"DET001": 1}
        assert "DET001" in payload["rules"] and len(payload["rules"]) >= 8
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "code", "message"}
        assert finding["code"] == "DET001"
        (suppressed,) = payload["suppressed"]
        assert suppressed["code"] == "DET002"


class TestFindingBasics:
    def test_format_and_ordering(self):
        a = Finding(path="a.py", line=3, col=1, code="DET001", message="m")
        b = Finding(path="a.py", line=9, col=1, code="DET001", message="m")
        assert a.format() == "a.py:3:1: DET001 m"
        assert sorted([b, a]) == [a, b]
