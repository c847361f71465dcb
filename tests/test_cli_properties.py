"""Property tests of the command-line exit codes: random arguments to
`gauss`, `classgroup` and `zeta-local` give exit 0 or 2 (a usage error),
never 1 and never a traceback."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from besselzeta.cli import main


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code


# the unit integrals of the gauss check run over units mod p^(e+2); the
# first branch draws only valid rings
gauss_pe = st.one_of(
    st.tuples(st.sampled_from((3, 5, 7, 11, 13)), st.integers(1, 2)),
    st.tuples(st.integers(-3, 40), st.integers(-1, 1)),
    st.tuples(st.integers(-3, 13), st.just(2)),
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(gauss_pe, st.integers(-12, 24),
       st.sampled_from(("gauss", "split", "normsum", "smith")), st.integers(-30, 30))
def test_gauss_exit_codes(pe, char_index, check, unit):
    p, e = pe
    argv = ["gauss", "--p", str(p), "--e", str(e), "--char-index", str(char_index),
            "--check", check, "--unit", str(unit)]
    assert _exit_code(argv) in (0, 2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(-400, 20))
def test_classgroup_exit_codes(d):
    assert _exit_code(["classgroup", "--D", str(d)]) in (0, 2)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(("4", "5")), st.sampled_from(("I", "IIb", "IIIa", "VIb")),
       st.integers(-2, 4), st.booleans())
def test_zeta_local_exit_codes(case, rep_type, index, symbolic):
    argv = ["zeta-local", "--case", case, "--type", rep_type, "--index", str(index)]
    assert _exit_code(argv + ["--symbolic"] * symbolic) in (0, 2)
