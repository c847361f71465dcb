import io
import json
import sys
from pathlib import Path

import pytest

from besselzeta import suites
from besselzeta.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _run(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_verify_single_suite_exit_zero():
    code, out = _run(["verify", "--suite", "tfactor"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["ok"] is True
    assert doc["suites"][0]["suite"] == "tfactor"
    assert all(c["provenance"] in ("PAPER", "TRIVIAL", "DERIVED")
               for c in doc["suites"][0]["cases"])


def test_verify_unknown_suite_usage_error():
    code, _ = _run(["verify", "--suite", "nonsense"])
    assert code == 2


def test_verify_deterministic_output():
    _, out1 = _run(["verify", "--suite", "classgroup"])
    _, out2 = _run(["verify", "--suite", "classgroup"])
    assert out1 == out2  # byte-identical for fixed seed


def test_seed_in_report(monkeypatch):
    monkeypatch.setenv("BZ_SEED", "12345")
    code, out = _run(["verify", "--suite", "y_eta"])
    assert code == 0
    assert json.loads(out)["suites"][0]["seed"] == 12345


def test_classgroup_command():
    code, out = _run(["classgroup", "--D", "-23"])
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == 3
    assert len(doc["reduced_forms"]) == 3
    assert [1, 1, 6] in doc["reduced_forms"]
    assert doc["structure"] == "C3"


def test_lfactor_command_symbolic_table():
    code, out = _run(["lfactor", "--type", "IIIa", "--symbolic"])
    assert code == 0
    doc = json.loads(out)
    assert "spinor" in doc and "T" in doc["spinor"]
    assert "unitarity" in doc  # non-unitary inputs accepted with a note
    code, out = _run(["lfactor", "--type", "I", "--satake", "1,1,1"])
    doc = json.loads(out)
    assert doc["standard"].startswith("(") or "T" in doc["standard"]


def test_zeta_local_command():
    code, out = _run(["zeta-local", "--case", "4", "--type", "I",
                      "--symbolic", "--index", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["closed_form"] == doc["series_form"]
    code, out = _run(["zeta-local", "--case", "6", "--type", "VIb", "--symbolic"])
    assert code == 0 and json.loads(out)["match"] is True


def test_period_command():
    code, out = _run(["period", "--type", "IIb", "--symbolic"])
    assert code == 0
    assert json.loads(out)["match"] is True


def test_gauss_command():
    code, out = _run(["gauss", "--p", "5", "--e", "1", "--char-index", "1",
                      "--check", "split"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["abs_err"] < 1e-9
    code, out = _run(["gauss", "--p", "3", "--check", "normsum", "--unit", "2"])
    assert code == 0
    code, out = _run(["gauss", "--p", "3", "--check", "smith",
                      "--matrix", "2,7;4,9"])
    assert code == 0
    assert json.loads(out)["rhs"]["d1"] == 1


def test_average_command(tmp_path):
    cfg = tmp_path / "avg.json"
    cfg.write_text(json.dumps(
        {"D": -23, "l1": 6, "l2": 4, "N": 5, "M": 7, "chi": [1], "s": [1.0, 0.0]}
    ))
    code, out = _run(["average", "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out)
    consts = doc["constants"]
    assert consts["siegel_index"]["value"] == 156
    assert consts["w_D"]["value"] == 2
    assert all("provenance" in v for v in consts.values())


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["lfactor", "--type", "VII"])
    assert exc.value.code == 2


# the README examples whose output is exact, compared byte for byte
README_EXAMPLES = [
    ("lfactor", ["lfactor", "--type", "IIIa", "--symbolic"]),
    ("zeta_local", ["zeta-local", "--case", "4", "--type", "I", "--symbolic",
                    "--index", "2"]),
    ("period", ["period", "--type", "IIb", "--symbolic"]),
    ("gauss_smith", ["gauss", "--p", "3", "--check", "smith", "--matrix", "2,7;4,9"]),
    ("classgroup", ["classgroup", "--D", "-23"]),
]


@pytest.mark.parametrize("name,argv", README_EXAMPLES, ids=[n for n, _ in README_EXAMPLES])
def test_readme_example_golden(name, argv):
    code, out = _run(argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("argv", [
    ["gauss", "--p", "4", "--check", "split"],
    ["classgroup", "--D", "5"],
    ["lfactor", "--type", "I", "--u", "1/0"],
    ["lfactor", "--type", "I", "--satake", "1,2"],
    ["zeta-local", "--case", "4", "--type", "I", "--symbolic", "--index", "9"],
    ["zeta-local", "--case", "5", "--type", "IIIa", "--symbolic", "--index", "-1"],
])
def test_rejected_input_exits_2(argv, capsys):
    code, out = _run(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error" in err


def test_verify_failure_is_not_a_usage_error(monkeypatch):
    report = {"suite": "tfactor", "seed": 0, "cases": [], "summary": {}, "ok": False}
    monkeypatch.setitem(suites.SUITES, "tfactor", lambda: report)
    code, out = _run(["verify", "--suite", "tfactor"])
    assert code == 1 and json.loads(out)["ok"] is False

    def broken():
        raise ValueError("suite bug")

    monkeypatch.setitem(suites.SUITES, "tfactor", broken)
    with pytest.raises(ValueError):
        main(["verify", "--suite", "tfactor"])
