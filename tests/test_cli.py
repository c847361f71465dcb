import io
import json
import sys
from pathlib import Path

import pytest

from besselzeta import localzeta as lz
from besselzeta import padicring as pr
from besselzeta import suites
from besselzeta.cli import main
from besselzeta.symfield import RF_ONE

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


def test_non_integer_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("BZ_SEED", "abc")
    code, out = _run(["verify", "--suite", "case1"])
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "BZ_SEED" in err
    # an integer seed may carry surrounding spaces
    monkeypatch.setenv("BZ_SEED", " 502 ")
    spaced = _run(["verify", "--suite", "y_eta"])
    monkeypatch.setenv("BZ_SEED", "502")
    assert spaced == _run(["verify", "--suite", "y_eta"])
    assert json.loads(spaced[1])["suites"][0]["seed"] == 502


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
    # smith builds no residue ring, so --p need not be an odd prime
    code, out = _run(["gauss", "--p", "4", "--check", "smith", "--matrix", "2,7;4,9"])
    assert code == 0 and json.loads(out)["rhs"] == {"d1": 1, "d2": 10}


def test_gauss_smith_checks_the_transforms(monkeypatch):
    # identity transforms do not diagonalize [[2, 7], [4, 9]]
    monkeypatch.setattr(pr, "smith_form_2x2",
                        lambda m: (1, 10, [[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    code, out = _run(["gauss", "--p", "3", "--check", "smith", "--matrix", "2,7;4,9"])
    assert code == 1
    assert json.loads(out)["pass"] is False


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
    # the L-factors do not depend on Lambda(pi), so lfactor takes no --lam
    with pytest.raises(SystemExit) as exc:
        main(["lfactor", "--type", "I", "--lam", "2"])
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


# inputs with a zero twist value or outside a case's hypotheses, and
# their stderr message; --lam 0 on case 6 fails the closed form's check
# first, so its message is the zero one
HYPOTHESIS_REJECTS = [
    (["zeta-local", "--case", "4", "--type", "I", "--u=0"], "u = mu(pi) must be nonzero"),
    (["period", "--type", "I", "--u=0"], "u = mu(pi) must be nonzero"),
    (["period", "--type", "IIIa", "--lam", "0"], "lam = Lambda(pi) must be nonzero"),
    (["zeta-local", "--case", "6", "--type", "VIb", "--lam", "0"],
     "lam = Lambda(pi) must be nonzero"),
    (["zeta-local", "--case", "5", "--type", "IIIa", "--lam", "2"],
     "the case 5/6 series is stated for Lambda = 1"),
    (["zeta-local", "--case", "6", "--type", "VIb", "--symbolic", "--lam", "2"],
     "the case 5/6 series is stated for Lambda = 1"),
    (["zeta-local", "--case", "5", "--type", "IIIa", "--satake=-1,-1"],
     "the case 5/6 series requires trivial central character"),
    (["zeta-local", "--case", "6", "--type", "IIIa"], "case 6 is stated for type VIb"),
    (["zeta-local", "--case", "5", "--type", "VIb"], "case 5 is stated for type IIIa"),
    (["zeta-local", "--case", "1", "--type", "I", "--u=0"], "u = mu(pi) must be nonzero"),
    (["zeta-local", "--case", "1", "--type", "I", "--lam", "2"],
     "case 1 is stated for Lambda = 1"),
    (["zeta-local", "--case", "1", "--type", "IIIa"], "case 1 needs type I or IIb"),
    (["zeta-local", "--case", "1", "--type", "I", "--satake", "2,1,1"],
     "case 1 requires trivial central character"),
]


@pytest.mark.parametrize("argv", [
    ["gauss", "--p", "4", "--check", "split"],
    ["classgroup", "--D", "5"],
    ["lfactor", "--type", "I", "--u", "1/0"],
    ["lfactor", "--type", "I", "--satake", "1,2"],
    ["zeta-local", "--case", "4", "--type", "I", "--symbolic", "--index", "9"],
    ["zeta-local", "--case", "5", "--type", "IIIa", "--symbolic", "--index", "-1"],
    ["zeta-local", "--case", "1", "--type", "I", "--symbolic", "--index", "9"],
    # the trivial character mod 3 is outside the norm-sum lemma
    ["gauss", "--p", "3", "--char-index", "0", "--check", "normsum"],
    # basis indices outside 0..n-1; a tuple would accept -1 silently
    ["zeta-local", "--case", "4", "--type", "I", "--symbolic", "--index", "-1"],
    ["zeta-local", "--case", "4", "--type", "I", "--symbolic", "--index", "4"],
    ["zeta-local", "--case", "5", "--type", "IIIa", "--symbolic", "--index", "2"],
    ["zeta-local", "--case", "5", "--type", "IIIa", "--symbolic", "--index", "5"],
    ["zeta-local", "--case", "6", "--type", "VIb", "--symbolic", "--index", "-1"],
    ["zeta-local", "--case", "6", "--type", "VIb", "--symbolic", "--index", "1"],
    ["zeta-local", "--case", "6", "--type", "VIb", "--symbolic", "--index", "5"],
    # a ragged matrix: a short second row, a long second row
    ["gauss", "--p", "3", "--check", "smith", "--matrix", "2,7;4"],
    ["gauss", "--p", "3", "--check", "smith", "--matrix", "2,7;4,9,1"],
    *(argv for argv, _ in HYPOTHESIS_REJECTS),
])
def test_rejected_input_exits_2(argv, capsys):
    code, out = _run(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error" in err


@pytest.mark.parametrize("argv,message", HYPOTHESIS_REJECTS)
def test_case_hypothesis_messages(argv, message, capsys):
    assert _run(argv) == (2, "")
    assert capsys.readouterr().err == f"besselzeta {argv[0]}: error: ValueError: {message}\n"


def test_lfactor_accepts_zero_twist():
    # the factor tables need no inverse of u
    code, out = _run(["lfactor", "--type", "I", "--u", "0"])
    assert code == 0 and json.loads(out)["command"] == "lfactor"


@pytest.mark.parametrize("case,rep_type,index,n", [
    ("4", "I", "-1", 4), ("4", "IIb", "3", 3), ("5", "IIIa", "-1", 2), ("6", "VIb", "1", 1),
])
def test_zeta_local_index_message(case, rep_type, index, n, capsys):
    code, _ = _run(["zeta-local", "--case", case, "--type", rep_type, "--symbolic",
                    "--index", index])
    assert code == 2
    assert capsys.readouterr().err == (
        f"besselzeta zeta-local: error: ValueError: basis index {index} out of "
        f"range for type {rep_type} (0..{n - 1})\n"
    )


def test_zeta_local_case1_compares_two_routes(monkeypatch):
    argv = ["zeta-local", "--case", "1", "--type", "IIb", "--symbolic"]
    code, out = _run(argv)
    doc = json.loads(out)
    assert code == 0 and doc["match"] is True
    assert doc["closed_form"] == doc["series_form"]
    # a wrong series route is caught by the L-factor side
    monkeypatch.setattr(lz, "zeta_case1", lambda rep, tw: RF_ONE)
    code, out = _run(argv)
    doc = json.loads(out)
    assert code == 1 and doc["match"] is False
    assert doc["series_form"] == "1" != doc["closed_form"]


@pytest.mark.parametrize("config", [
    None,  # no file
    '{"D": -23, "l1": 6, "l2": 4}',
    '{"M": 7, "chi": [1], "l1": 6, "l2": 4}',
    '[-23, 6, 4, 7]',
    # values of the wrong type
    '{"D": -23, "l1": 6, "l2": 4, "M": 7, "chi": [1], "s": 5}',
    '{"D": -23, "l1": 6, "l2": 4, "M": 7, "chi": 1}',
    '{"D": "x", "l1": 6, "l2": 4, "M": 7}',
    '{"D": -23, "l1": "a", "l2": 4, "M": 7}',
    '{"D": -23, "l1": 6, "l2": 4, "M": 7.0}',
    '{"D": -23, "l1": 6, "l2": 4, "M": 7, "N": true}',
    '{"D": -23, "l1": 6, "l2": 4, "M": 7, "N_pi": "5"}',
    '{"D": -23, "l1": 6, "l2": 4, "M": 7, "S": [3, "11"]}',
    '{"D": -23, "l1": 6, "l2": 4, "M": 7, "s": [1.0, "x"]}',
    '{"D": -23, "l1": 6, "l2": 4, "M": 7, "s": [1.0, 0.0, 2.0]}',
])
def test_average_bad_config_exits_2(config, tmp_path, capsys):
    path = tmp_path / "avg.json"
    if config is not None:
        path.write_text(config)
    code, out = _run(["average", "--config", str(path)])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error" in err


def test_verify_failure_is_not_a_usage_error(monkeypatch):
    cases = [suites._case("t", "i", "1", "2", False, "TRIVIAL")]
    monkeypatch.setitem(suites.SUITES, "tfactor", lambda: cases)
    code, out = _run(["verify", "--suite", "tfactor"])
    assert code == 1 and json.loads(out)["ok"] is False

    def broken():
        raise ValueError("suite bug")

    monkeypatch.setitem(suites.SUITES, "tfactor", broken)
    with pytest.raises(ValueError):
        main(["verify", "--suite", "tfactor"])
