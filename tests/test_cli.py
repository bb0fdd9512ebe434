import json

import pytest

from grouplab.cli import main
from grouplab.corpus import named_group, write_group_file
from grouplab.groups import Group
from grouplab.runner import run_corpus


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_builtin(capsys):
    code, out, _ = run_cli(capsys, "info", "builtin:S4")
    assert code == 0
    assert "order: 24" in out
    assert "sylow p=2: order 8, count 3, d_p 2" in out
    assert "supersoluble: False" in out


def test_info_builds_one_table(capsys, monkeypatch):
    """The Sylow generator numbers are read on G's table, and so is the
    derived series: S4's report builds S4's table and no other."""
    built = []
    real = Group.table

    def counted(self):
        if self._table is None:
            built.append(self.order())
        return real(self)

    monkeypatch.setattr(Group, "table", counted)
    code, out, _ = run_cli(capsys, "info", "builtin:S4")
    assert code == 0
    assert out == (
        "name: S4\n"
        "provenance: builtin\n"
        "order: 24\n"
        "degree: 4\n"
        "primes: 2 3\n"
        "sylow p=2: order 8, count 3, d_p 2\n"
        "sylow p=3: order 3, count 4, d_p 1\n"
        "soluble: True\n"
        "nilpotent: False\n"
        "supersoluble: False\n"
        "p=2: p-soluble True, p-supersoluble False, p-nilpotent False\n"
        "p=3: p-soluble True, p-supersoluble True, p-nilpotent False\n"
    )
    assert built == [24]


def test_info_above_enum_cap_skips_what_needs_elements(capsys):
    code, out, err = run_cli(capsys, "--enum-cap", "100", "info", "builtin:S5")
    assert code == 0 and err == ""
    assert "sylow p=2: order 8, count ?, d_p ?" in out
    assert "class predicates: skipped (order above enumeration cap)" in out


def test_info_file(tmp_path, capsys):
    path = tmp_path / "g.grp"
    path.write_text(write_group_file(named_group("D8")))
    code, out, _ = run_cli(capsys, "info", f"file:{path}")
    assert code == 0 and "order: 8" in out


def test_check_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "check", "builtin:S4", "--prime", "2")
    assert code == 0
    assert "hypothesis: False" in out and "conclusion: False" in out
    code, out, _ = run_cli(capsys, "check", "builtin:Q8", "--prime", "2")
    assert code == 0
    assert "hypothesis: True" in out


def test_check_usage_error(capsys):
    # prime not dividing the order is a usage error
    code, _, err = run_cli(capsys, "check", "builtin:S4", "--prime", "7")
    assert code == 2
    assert "error" in err


def test_check_unknown_group(capsys):
    code, _, err = run_cli(capsys, "check", "builtin:NOPE", "--prime", "2")
    assert code == 2


def test_check_cap_error(capsys):
    code, _, err = run_cli(
        capsys, "--enum-cap", "10", "check", "builtin:S4", "--prime", "2"
    )
    assert code == 2
    assert "cap" in err


def test_verify_writes_report_and_manifest(tmp_path, capsys):
    out = tmp_path / "report.txt"
    manifest = tmp_path / "manifest.txt"
    code, _, err = run_cli(
        capsys,
        "verify",
        "--max-order",
        "24",
        "--checks",
        "main,srinivasan",
        "--out",
        str(out),
        "--manifest",
        str(manifest),
    )
    assert code == 0
    text = out.read_text()
    assert "fail=0" in text
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert all(len(l.split("\t")) == 7 for l in lines)
    assert manifest.read_text().splitlines()[0].startswith("#")


def test_verify_jsonl_format(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code, _, _ = run_cli(
        capsys,
        "verify",
        "--max-order",
        "12",
        "--checks",
        "main",
        "--format",
        "jsonl",
        "--out",
        str(out),
    )
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows[-1]["fail"] == 0


def test_verify_parallel_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path, jobs in ((a, "1"), (b, "3")):
        code, _, _ = run_cli(
            capsys,
            "verify",
            "--max-order",
            "16",
            "--checks",
            "main",
            "--jobs",
            jobs,
            "--out",
            str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "nonsense")
    assert code == 2


def test_verify_empty_check_list_is_a_usage_error(capsys):
    """A run that would check nothing fails instead of reporting success."""
    for checks in (",", ""):
        code, out, err = run_cli(
            capsys, "verify", "--max-order", "4", "--checks", checks
        )
        assert code == 2 and out == "", repr(checks)
        assert "usage error: no check requested" in err


def test_verify_jobs_below_one_is_a_usage_error(capsys):
    for jobs in ("0", "-2"):
        code, out, err = run_cli(capsys, "verify", "--max-order", "4", "--jobs", jobs)
        assert code == 2 and out == "", jobs
        assert "usage error: parallelism must be at least 1" in err


def test_caps_below_one_are_usage_errors(capsys):
    """A cap below 1 would skip every record it caps and still exit 0; the
    library refuses it, and the CLI exits 2 with nothing on stdout."""
    for cap in ("0", "-1"):
        for argv, name in (
            (("--enum-cap", cap, "verify", "--max-order", "8"), "enum_cap"),
            (("--enum-cap", cap, "info", "builtin:S4"), "enum_cap"),
            (
                ("--lattice-cap", cap, "verify", "--max-order", "8", "--checks", "lemmas"),
                "lattice_cap",
            ),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert f"usage error: {name} must be at least 1, not {cap}" in err
        with pytest.raises(ValueError):
            Group(3, [], enum_cap=int(cap))
        with pytest.raises(ValueError):
            run_corpus([named_group("S3")], ["lemmas"], lattice_cap=int(cap))
    assert Group(3, [], enum_cap=1).order() == 1


def test_verify_error_record_exits_nonzero(tmp_path, capsys, monkeypatch):
    import grouplab.runner as runner_mod

    def broken_verify_main(G, p, mode=None, group_name="?"):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner_mod, "verify_main", broken_verify_main)
    out = tmp_path / "report.txt"
    code, _, err = run_cli(
        capsys, "verify", "--max-order", "4", "--checks", "main", "--out", str(out)
    )
    assert code == 1
    assert "ERROR: main on C2: RuntimeError: boom" in err
    assert "error:RuntimeError" in out.read_text()
