"""Exact-finding tests for every rule against the line-pinned fixtures."""

from pathlib import Path

import pytest

from repro.check import CheckConfig, scan_paths
from repro.check.registry import RULES

FIXTURES = Path(__file__).parent / "fixtures"


def findings_for(relpath: str, code: str):
    """Scan one fixture with a single rule; return {(path, line)}."""
    found = scan_paths(
        [FIXTURES / relpath],
        config=CheckConfig(),
        select=[code],
        root=FIXTURES,
    )
    assert all(f.code == code for f in found)
    return {(f.path, f.line) for f in found}


def test_registry_has_all_rules():
    assert sorted(RULES) == [
        "R001", "R002", "R003", "R004", "R005", "R006", "R008",
    ]


def test_r001_determinism_findings():
    path = "engine/bad_determinism.py"
    assert findings_for(path, "R001") == {
        (path, 4),   # import random
        (path, 6),   # from random import choice
        (path, 7),   # from time import time
        (path, 16),  # time.time()
        (path, 17),  # os.urandom
        (path, 18),  # unseeded default_rng()
        (path, 19),  # legacy np.random.rand
    }


def test_r001_only_fires_under_determinism_paths():
    # The same file outside accel/hardware/engine/formats is exempt.
    src = (FIXTURES / "engine" / "bad_determinism.py").read_text()
    copy = FIXTURES / "relocated_determinism.py"
    copy.write_text(src)
    try:
        assert findings_for("relocated_determinism.py", "R001") == set()
    finally:
        copy.unlink()


def test_r002_frozen_mutation_findings():
    path = "bad_frozen.py"
    assert findings_for(path, "R002") == {
        (path, 16),  # self.value = 1 outside __init__/__post_init__
        (path, 25),  # annotated-parameter mutation
        (path, 30),  # augmented assign on constructed local
        (path, 37),  # object.__setattr__ outside the frozen class
    }


def test_r003_unit_findings():
    path = "bad_units.py"
    # Line 13 repeats the line-7 mix but carries `# repro: noqa R003`.
    assert findings_for(path, "R003") == {
        (path, 7),   # cycles + bytes
        (path, 8),   # macs - joules
        (path, 9),   # cycles vs words comparison
        (path, 10),  # augmented cycles += bytes
    }


def test_r004_api_findings():
    path = "bad_api.py"
    found = scan_paths(
        [FIXTURES / path], config=CheckConfig(), select=["R004"],
        root=FIXTURES,
    )
    by_line = sorted((f.line, f.message) for f in found)
    assert {line for line, _ in by_line} == {3, 5, 12}
    messages = " | ".join(msg for _, msg in by_line)
    assert "ghost" in messages      # listed but undefined
    assert "listed" in messages     # duplicate entry
    assert "CONSTANT" in messages   # public, unlisted
    assert "unlisted" in messages   # public, unlisted


def test_r004_missing_all():
    assert findings_for("no_all.py", "R004") == {("no_all.py", 1)}


def test_r005_validation_findings():
    path = "hardware/bad_validation.py"
    assert findings_for(path, "R005") == {
        (path, 9),   # NoPostInit: numeric fields, no __post_init__
        (path, 17),  # PartialPostInit.unchecked never referenced
    }


def test_r005_only_fires_under_validation_paths():
    src = (FIXTURES / "hardware" / "bad_validation.py").read_text()
    copy = FIXTURES / "relocated_validation.py"
    copy.write_text(src)
    try:
        assert findings_for("relocated_validation.py", "R005") == set()
    finally:
        copy.unlink()


def test_r006_hot_path_loop_findings():
    path = "formats/bad_hotpath.py"
    assert findings_for(path, "R006") == {
        (path, 13),  # for v in vertices
        (path, 15),  # for ... in enumerate(edges)
        (path, 17),  # for x in vertices.tolist()
        (path, 24),  # for row in arr.tolist()
        (path, 31),  # while len(keys) > 0
        # line 34 carries `# repro: noqa R006`; cold loops in fine() and
        # the comprehension are never flagged
    }


def test_r006_only_fires_under_hot_paths():
    src = (FIXTURES / "formats" / "bad_hotpath.py").read_text()
    copy = FIXTURES / "relocated_hotpath.py"
    copy.write_text(src)
    try:
        assert findings_for("relocated_hotpath.py", "R006") == set()
    finally:
        copy.unlink()


def test_r006_message_names_the_hot_noun():
    found = scan_paths(
        [FIXTURES / "formats" / "bad_hotpath.py"],
        config=CheckConfig(), select=["R006"], root=FIXTURES,
    )
    by_line = {f.line: f.message for f in found}
    assert "'vertices'" in by_line[13]
    assert "tolist" in by_line[24]
    assert "'keys'" in by_line[31]


def test_r008_contract_coverage_findings():
    path = "graphs/bad_coverage.py"
    found = scan_paths(
        [FIXTURES / path], config=CheckConfig(), select=["R008"],
        root=FIXTURES,
    )
    # only uncovered_kernel: covered has a contract, suppressed carries a
    # noqa, not_an_array_api has no ndarray in its signature, and
    # _private_kernel is not public.
    assert [(f.path, f.line) for f in found] == [(path, 20)]
    assert "uncovered_kernel" in found[0].message
    assert "noqa R008" in found[0].message  # message explains the escape


def test_clean_fixture_has_no_findings():
    found = scan_paths(
        [FIXTURES / "clean.py"], config=CheckConfig(), root=FIXTURES
    )
    assert found == []


def test_findings_sorted_and_formatted():
    found = scan_paths(
        [FIXTURES / "bad_units.py"], config=CheckConfig(),
        select=["R003"], root=FIXTURES,
    )
    assert found == sorted(found)
    first = found[0].format()
    assert first.startswith("bad_units.py:7 R003 ")


def test_config_disable_suppresses_rule():
    cfg = CheckConfig(disable=("R003",))
    found = scan_paths(
        [FIXTURES / "bad_units.py"], config=cfg, select=["R003"],
        root=FIXTURES,
    )
    assert found == []


def test_config_enable_restricts_to_listed_rules():
    cfg = CheckConfig(enable=("R004",))
    found = scan_paths(
        [FIXTURES / "bad_units.py"], config=cfg, root=FIXTURES
    )
    assert {f.code for f in found} == {"R004"} or found == []


def test_config_exclude_glob_skips_file():
    cfg = CheckConfig(exclude=("bad_*.py",))
    found = scan_paths(
        [FIXTURES / "bad_units.py"], config=cfg, root=FIXTURES
    )
    assert found == []


def test_noqa_bare_comment_suppresses_every_code(tmp_path):
    bad = tmp_path / "engine" / "mod.py"
    bad.parent.mkdir()
    bad.write_text(
        '"""doc."""\n\nimport random  # repro: noqa\n'
        "__all__ = []\n"
    )
    found = scan_paths([bad], config=CheckConfig(), root=tmp_path)
    assert found == []


def test_noqa_wrong_code_does_not_suppress(tmp_path):
    bad = tmp_path / "engine" / "mod.py"
    bad.parent.mkdir()
    bad.write_text(
        '"""doc."""\n\nimport random  # repro: noqa R004\n'
        "__all__ = []\n"
    )
    found = scan_paths(
        [bad], config=CheckConfig(), select=["R001"], root=tmp_path
    )
    assert [(f.code, f.line) for f in found] == [("R001", 3)]


def test_cli_exit_codes(capsys):
    from repro.check.runner import main

    rc = main([str(FIXTURES / "clean.py"), "--root", str(FIXTURES)])
    assert rc == 0
    rc = main([str(FIXTURES / "bad_api.py"), "--root", str(FIXTURES)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "bad_api.py:3 R004" in out


def test_cli_list_rules(capsys):
    from repro.check.runner import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    codes = [line.split()[0] for line in out.splitlines()]
    assert codes == ["R001", "R002", "R003", "R004", "R005", "R006", "R008"]


def test_cli_unknown_select_code_is_an_error(capsys):
    from repro.check.runner import main

    # a deleted rule's code must not be silently accepted either
    for code in ("R999", "R007"):
        rc = main([str(FIXTURES / "clean.py"), "--select", code,
                   "--root", str(FIXTURES)])
        assert rc == 2
        assert f"unknown rule code(s): {code}" in capsys.readouterr().err


def test_cli_missing_path_is_a_clean_error(capsys):
    from repro.check.runner import main

    rc = main(["does/not/exist"])
    assert rc == 2
    assert "does/not/exist" in capsys.readouterr().err


def test_scan_rejects_non_python_path(tmp_path):
    stray = tmp_path / "notes.txt"
    stray.write_text("hello")
    with pytest.raises(FileNotFoundError):
        scan_paths([stray], config=CheckConfig(), root=tmp_path)
