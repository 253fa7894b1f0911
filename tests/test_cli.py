import json
import subprocess
import sys

import pytest
from conftest import fixture_path

from knotfloer import cli, table
from knotfloer.altgen import ConsistencyError
from knotfloer.diagrams import serialize_pd
from knotfloer.seifert import BraidingError
from knotfloer.surgery import SurgeryConsistencyError


def run(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "knotfloer.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin,
    )


def test_alexander_table_lookup():
    r = run("alexander", "--knot", "3_1")
    assert r.returncode == 0
    assert r.stdout.strip() == "t^-1 - 1 + t"


def test_hk_trefoil():
    r = run("hk", "--knot", "3_1", "--k", "0")
    assert r.returncode == 0 and r.stdout.strip() == "1"


def test_small_10_123():
    r = run("small", "--knot", "10_123")
    assert r.returncode == 0 and r.stdout.strip() == "false"


def test_pd_stdin():
    r = run("alexander", "--pd", "-", stdin="X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    assert r.returncode == 0 and r.stdout.strip() == "t^-1 - 1 + t"


def test_json_single_document_and_deterministic():
    r1 = run("cfr", "--knot", "4_1", "--json")
    r2 = run("cfr", "--knot", "4_1", "--json")
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout  # byte-identical
    doc = json.loads(r1.stdout)  # exactly one JSON document
    assert doc["small"] is True and doc["ranks"] == {"-1": 1, "0": 3, "1": 1}
    assert doc["schema"] == 1


def test_surgery_json():
    r = run("surgery", "--knot", "3_1", "--m", "1", "--k", "0", "--json")
    doc = json.loads(r.stdout)
    assert (doc["h"], doc["d_shift"], doc["reduced_rank"]) == (1, -2, 0)


def test_maslov_subcommand(tmp_path):
    dom = tmp_path / "dom.json"
    dom.write_text(json.dumps({"multiplicity": {"U": 1}, "corners": ["x1", "x2"]}))
    r = run(
        "maslov",
        "--cellulation", fixture_path("genus1_bigon.json"),
        "--domain", str(dom),
        "--json",
    )
    doc = json.loads(r.stdout)
    assert doc["maslov"] == 1 and doc["classification"] == "disk_diff"


def test_usage_error_exit_2():
    r = run("alexander")
    assert r.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["alexander", "--knot", "3_1", "--m", "5"],
        ["signature", "--knot", "3_1", "--trace", "out"],
        ["mprs", "--knot", "3_1", "--field", "Q"],
        ["maslov", "--knot", "3_1"],
        ["table", "--k", "0"],
    ],
)
def test_option_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_domain_error_exit_1():
    r = run("alexander", "--knot", "nope_1")
    assert r.returncode == 1


@pytest.mark.parametrize(
    "argv, target, error",
    [
        (["small", "--knot", "4_1"], "knotfloer.altgen.certify_small", ConsistencyError),
        (["hk", "--knot", "3_1"], "knotfloer.surgery.h_invariant", SurgeryConsistencyError),
        (["alexander", "--knot", "5_2"], "knotfloer.fox.alexander", BraidingError),
        (["table"], "knotfloer.table.names", ConsistencyError),
    ],
)
def test_program_bug_exit_3(monkeypatch, capsys, argv, target, error):
    def failing(*args, **kwargs):
        raise error("the checked invariant fails")

    monkeypatch.setattr(target, failing)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "%s: the checked invariant fails" % error.__name__ in err
    if "--knot" in argv:
        assert "PD: %s" % serialize_pd(table.lookup(argv[2])) in err
    else:
        assert "PD:" not in err


def test_trace(tmp_path):
    trace = tmp_path / "trace"
    r = run("spectrum", "--knot", "3_1", "--trace", str(trace))
    assert r.returncode == 0
    assert (trace / "presentation.json").exists()
    assert (trace / "spectrum.json").exists()


def test_table_listing():
    r = run("table", "--json")
    doc = json.loads(r.stdout)
    names = [row["name"] for row in doc["knots"]]
    assert "3_1" in names and "10_123" in names


def test_table_path_override(tmp_path, monkeypatch):
    import json as _json
    import os

    from knotfloer import table as tbl

    custom = tmp_path / "mini.json"
    entry = tbl.raw_table()["3_1"]
    custom.write_text(_json.dumps({"only_1": entry}))
    r = subprocess.run(
        [sys.executable, "-m", "knotfloer.cli", "alexander", "--knot", "only_1"],
        capture_output=True,
        text=True,
        env={**os.environ, "FLOER_TABLE_PATH": str(custom)},
    )
    assert r.returncode == 0 and r.stdout.strip() == "t^-1 - 1 + t"
