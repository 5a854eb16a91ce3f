"""Fuzz of the CLI's numeric flags.

``harvester explore``, ``coil synth``, ``tissue table`` and ``sweep
--s2p`` run with each numeric flag either left at its default or drawn
from plausible finite values, signed zeros, negatives, NaN, the
infinities, huge values, the edges of the float range (the smallest
subnormal, the smallest normal and its neighbour, 1e-300, the largest
float) and the values next to each flag's own limits.  Every run must
end in a documented exit code (0, 2, 3 or 4) with at most one stderr
line, never in a traceback or a numpy warning (the suite turns
RuntimeWarning into an error), and print no number longer than a float's
17 digits.  A run that succeeds or reports an infeasible design must
print no NaN.  Counts (stage counts, sweep points, --top) stay small,
because the work of a run grows with them, except for the values at and
next to their upper limits.  Examples are derandomized so every run
checks the same argument lists.
"""

import contextlib
import io
import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wptkit import cli, pipeline

S2P = "# MHZ S RI R 50\n1 0.1 0 0.5 0.1 0.5 0.1 0.1 0\n100 0.2 0 0.4 -0.1 0.4 -0.1 0.2 0\n"
TINY = sys.float_info.min  # smallest normal float
EDGES = [0.0, -0.0, -1.0, -1e300, math.nan, math.inf, -math.inf, 1e300, 1.7e308,
         5e-324, 1e-300, TINY, math.nextafter(TINY, 0.0), sys.float_info.max]


def beside(*limits: float) -> list[float]:
    """Each limit and its two float neighbours."""
    return [v for x in limits for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def reals(lo: float, hi: float, *limits: float):
    """Log-uniform in [lo, hi], one time in four an edge value: an edge of
    the float range or a value next to one of the flag's ``limits``."""
    usual = st.floats(math.log(lo), math.log(hi)).map(math.exp)
    edges = st.sampled_from(EDGES + beside(*limits))
    return st.integers(0, 3).flatmap(lambda i: edges if i == 0 else usual)


def counts(lo: int, hi: int, *edges: int):
    """Integers in [lo, hi]; one time in eight one of ``edges``, the flag's
    upper limit or the count past it."""
    return st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(edges) if i == 0 else st.integers(lo, hi))


def argv(command: tuple, flags: dict, required: tuple = ()):
    """``command`` with the ``required`` flags and a subset of the others,
    each written ``--flag=value`` so a negative value is not read as a flag."""
    rest = sorted(set(flags) - set(required))
    optional = st.lists(st.sampled_from(rest), unique=True) if rest else st.just([])

    @st.composite
    def draw(draw):
        names = list(required) + draw(optional)
        return [*command, *(f"{name}={draw(flags[name])}" for name in names)]
    return draw()


HARVESTER = argv(("harvester", "explore"), {
    "--v-rx": reals(1e-3, 30.0),
    "--target-v": reals(0.1, 5.0),
    "--n-min": st.integers(-2, 5),
    "--n-max": counts(-2, 30, pipeline.MAX_STAGES, pipeline.MAX_STAGES + 1),
    "--q": reals(1.0, 10.0, 1.0),
    "--max-charge-time": reals(1e-6, 100.0),
    "--f0": reals(1e5, 1e9),
    "--tissue-r": reals(1.0, 100.0, 1.5e308),
    "--tissue-x": reals(1.0, 100.0, 1.5e308),
    "--c-store": reals(1e-9, 1e-5),
    "--i-load": reals(1e-9, 1e-3),
    "--v-t": reals(1e-3, 0.1),
    "--r-stage": reals(1.0, 1e6),
    "--c-stage": reals(1e-15, 1e-9),
}, ("--v-rx", "--target-v"))

COIL = argv(("coil", "synth"), {
    "--target-l": reals(1e-9, 1e-6),
    "--max-area": reals(1e-6, 6e-4, pipeline.MAX_AREA),
    "--min-width": reals(2e-5, 3e-4),
    "--min-spacing": reals(2e-5, 3e-4),
    "--f0": reals(1e5, 1e9),
    "--top": st.integers(-1, 3),
}, ("--target-l", "--max-area"))


TISSUE = argv(("tissue", "table"), {"--f": reals(1e5, 1e9)}, ("--f",))

# Argument lists the draws above have missed: a tiny --f0 with a feasible
# synthesis (the skin depth dwarfs the trace), a stage impedance whose
# square overflows, a stage admittance that underflows to 0, zero drive
# with a V_T at which 2 n V_T overflows, a tissue impedance whose magnitude
# overflows, and a match residual |Z - Z_tissue*| that overflows at n = 2.
EXAMPLES = {
    "harvester": [["harvester", "explore", "--v-rx", "0.05", "--target-v", "1",
                   "--r-stage", "1e300", "--c-stage", "1e-300"],
                  ["harvester", "explore", "--v-rx", "0.05", "--target-v", "1",
                   "--r-stage", "1.7e308", "--c-stage", "5e-324", "--f0", "0.1", "--n-min", "2"],
                  ["harvester", "explore", "--v-rx", "0", "--target-v", "1", "--v-t", "1.7e308",
                   "--n-max", "2"],
                  ["harvester", "explore", "--v-rx", "0.05", "--target-v", "1",
                   "--tissue-r", "1.5e308", "--tissue-x", "1.5e308"],
                  ["harvester", "explore", "--v-rx", "0.05", "--target-v", "1",
                   "--r-stage", "1e307", "--c-stage", "5e-324", "--f0", "1e8",
                   "--tissue-r=-1.2e308", "--tissue-x", "1.2e308"]],
    "coil": [["coil", "synth", "--target-l", "80e-9", "--max-area", "25e-6", "--f0", "1e-30"]],
    "tissue": [],
}


def sweep(s2p: str):
    return argv(("sweep", "--s2p", s2p), {
        "--start": reals(1e6, 1e8),
        "--stop": reals(1e6, 1e8),
        "--points": counts(-1, 40, pipeline.MAX_SWEEP_POINTS + 1),
        "--scale": st.sampled_from(["log", "linear"]),
    })


def run(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def check(args: list[str], nan_free: bool) -> None:
    code, out, err = run(args)
    assert code in (0, 2, 3, 4), (args, code)
    assert len(err.splitlines()) <= 1, (args, err)
    assert "Traceback" not in err
    assert not re.search(r"\d{18}", out + err), (args, err)
    if nan_free and code in (0, 3):
        assert "nan" not in (out + err).lower(), (args, out, err)


@pytest.mark.parametrize("command", ["harvester", "coil", "tissue"])
def test_flags_end_in_an_exit_code(command):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given({"harvester": HARVESTER, "coil": COIL, "tissue": TISSUE}[command])
    def fuzz(args):
        check(args, nan_free=True)

    for args in EXAMPLES[command]:
        fuzz = example(args)(fuzz)
    fuzz()


def test_s2p_sweep_flags_end_in_an_exit_code(tmp_path):
    # pte_max is NaN where the data is not passive enough for it, so the
    # CSV may carry NaN.
    path = tmp_path / "link.s2p"
    path.write_text(S2P)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(sweep(str(path)))
    def fuzz(args):
        check(args, nan_free=False)

    fuzz()
