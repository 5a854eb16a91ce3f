"""Fuzz of the design command over generated spec documents.

Every document, well formed or not, must end in a documented exit code
(0, 2, 3 or 4) with at most one stderr line, never in a traceback.  Each
key of the schema gets either a plausible value or junk: a wrong JSON
type, NaN, an infinity, a non-integral count or an unknown key.  Numbers
are now and then an edge of the float range (the smallest subnormal, the
smallest normal and its neighbour, 1e-300, the largest float) or a value
next to the reader's own limit on the key.  Area caps, section counts and
stage counts otherwise stay small where they are numbers of the right
type, because the work of a run grows linearly with them; the reader's
upper limits on them are tested in test_pipeline.py.  Examples are
derandomized so every run checks the same documents.
"""

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptkit import cli, netcore, pipeline

LAYER = {"name": "muscle", "eps_inf": 4.0,
         "dispersions": [[50.0, 7.23e-12, 0.1], [7000.0, 353.68e-9, 0.1]],
         "sigma_s_per_m": 0.2, "thickness_m": 0.01}
GOOD_S2P = "# MHZ S RI R 50\n1 0.1 0 0.5 0.1 0.5 0.1 0.1 0\n100 0.2 0 0.4 -0.1 0.4 -0.1 0.2 0\n"
BAD_S2P = "# MHZ S RI R 50\n1 0.1 0 0.5 0 0.5 0 0.1 0\n2 nan 0 0.5 0 0.5 0 0.1 0\n"


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


TINY = sys.float_info.min  # smallest normal float
EDGES = [0, -1, -0.0, 5e-324, 1e-300, TINY, math.nextafter(TINY, 0.0), 1, 1e300,
         sys.float_info.max]


def beside(*limits: float) -> list[float]:
    """Each limit and its two float neighbours."""
    return [v for x in limits for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def numbers(lo: float, hi: float, *limits: float):
    """Mostly in [lo, hi]; sometimes zero, negative, tiny, huge or next to
    one of the key's ``limits``."""
    return edge_or(log_uniform(lo, hi), st.sampled_from(EDGES + beside(*limits)))


def counts(lo: int, hi: int, limit: int):
    """Integers in [lo, hi]; one time in eight the key's upper limit or one
    past it."""
    return edge_or(st.integers(lo, hi), st.sampled_from([limit, limit + 1]), odds=8)


def edge_or(usual, edge, odds: int = 6):
    """``usual`` but one time in ``odds`` ``edge``."""
    return st.integers(0, odds - 1).flatmap(lambda i: edge if i == 0 else usual)


scalars = st.one_of(st.none(), st.booleans(), st.integers(-10, 10), st.text(max_size=4),
                    st.sampled_from([math.nan, math.inf, -math.inf, 2.7, 1e300, -0.0]))
junk = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=2), max_leaves=4)


def maybe(valid):
    return edge_or(valid, junk, odds=16)


def objects(keys: dict, required: tuple = ()):
    """JSON objects holding ``required`` and a subset of the other keys,
    and now and then a stray key."""
    optional = st.lists(st.sampled_from(sorted(set(keys) - set(required))), unique=True)

    @st.composite
    def draw_object(draw):
        names = list(required) + (draw(optional) if len(required) < len(keys) else [])
        document = {name: draw(keys[name]) for name in names}
        if draw(st.integers(0, 15)) == 0:
            document["kk"] = 1
        return document
    return draw_object()


def spec_documents(s2p_paths: list[str]):
    layer = objects({k: maybe(st.just(v)) for k, v in LAYER.items()}, tuple(LAYER))
    side = objects({"shape": maybe(st.sampled_from(["square", "hexagonal", "octagonal",
                                                     "circular", "pentagram"])),
                    "max_area_m2": maybe(numbers(1e-6, 6e-4, pipeline.MAX_AREA))})
    tissue = objects({
        "enabled": maybe(st.booleans()),
        "sections_per_layer": maybe(counts(0, 12, pipeline.MAX_SECTIONS)),
        "face_area_m2": maybe(st.none() | log_uniform(1e-6, 1e-2)),
        "layers": maybe(st.none() | st.lists(maybe(layer), max_size=2)),
        "override_s2p": maybe(st.none() | st.sampled_from(s2p_paths)),
    })
    harvester = objects({
        "v_rx_v": maybe(numbers(1e-3, 30.0)),
        "target_v_out_v": maybe(numbers(0.1, 5.0)),
        "n_min": maybe(st.integers(0, 5)),
        "n_max": maybe(counts(0, 30, pipeline.MAX_STAGES)),
        "q_values": maybe(st.lists(numbers(1.0, 10.0, 1.0), max_size=3)),
        "max_charge_time_s": maybe(numbers(1e-6, 100.0)),
        "i_load_avg_a": maybe(numbers(1e-9, 1e-3)),
        "c_store_f": maybe(numbers(1e-9, 1e-5)),
        "v_t_v": maybe(numbers(1e-3, 0.1)),
        "r_stage_ohm": maybe(numbers(1.0, 1e6)),
        "c_stage_f": maybe(numbers(1e-15, 1e-9)),
        "tissue_z_ohm": maybe(st.lists(numbers(1.0, 100.0), min_size=2, max_size=2)),
    }, ("v_rx_v", "target_v_out_v"))
    return objects({
        "f0_hz": maybe(numbers(1e5, 1e9, netcore.F_MAX)),
        "ports": maybe(objects({"zp1_ohm": maybe(numbers(1.0, 1e3)),
                                "zp2_ohm": maybe(numbers(1.0, 1e3))})),
        "k": maybe(numbers(1e-3, 0.99, 1.0) | st.just("estimate")),
        "distance_m": maybe(st.none() | numbers(1e-4, 0.1)),
        "r1_init_ohm": maybe(numbers(1e-3, 100.0)),
        "r2_init_ohm": maybe(numbers(1e-3, 100.0)),
        "l1_pinned_h": maybe(st.none() | numbers(1e-9, 1e-5)),
        "tx": maybe(side),
        "rx": maybe(side),
        "fab": maybe(objects({"min_trace_width_m": maybe(numbers(1e-5, 1e-3)),
                              "min_spacing_m": maybe(numbers(1e-5, 1e-3))})),
        "tissue": maybe(tissue),
        "sar": maybe(objects({"p_tx_max_w": maybe(st.none() | numbers(1e-3, 1.0)),
                              "sar_limit_w_per_kg": maybe(numbers(0.1, 10.0))})),
        "harvester": maybe(st.none() | harvester),
    }, ("f0_hz",))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec-fuzz")
    (path / "good.s2p").write_text(GOOD_S2P)
    (path / "bad.s2p").write_text(BAD_S2P)
    return path


def test_design_command_ends_in_an_exit_code(workdir):
    paths = [str(workdir / name) for name in ("good.s2p", "bad.s2p", "missing.s2p")]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(maybe(spec_documents(paths)))
    def check(document):
        path = workdir / "spec.json"
        path.write_text(json.dumps(document))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["design", str(path)])
        assert code in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        assert len(lines) == (0 if code == 0 else 1), lines
        assert "Traceback" not in err.getvalue()

    check()
