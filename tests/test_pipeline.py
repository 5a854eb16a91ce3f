"""End-to-end pipeline, sweeps, report rendering and the CLI.

The symmetric 20 MHz reference spec must flow through every stage and
land on the published design values; reports must be deterministic,
carry units on every number and end in a machine-readable footer; the
CLI must honor its exit-code contract.
"""

import csv
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wptkit import cli, harvester, imn, netcore, pipeline, spiral, tissue
from wptkit.coil import PortPair
from wptkit.errors import InfeasibleDesignError
from wptkit.pipeline import (
    frequency_grid,
    load_design_spec,
    run_design,
    si,
    spec_from_dict,
    sweep_csv_text,
    sweep_link,
    sweep_table,
)
from wptkit.touchstone import read_touchstone, record_from_matrices, write_touchstone

SYMMETRIC = {
    "f0_hz": 20e6,
    "ports": {"zp1_ohm": 50.0, "zp2_ohm": 50.0},
    "k": 0.1,
    "tx": {"shape": "square", "max_area_m2": 3.24e-4},
    "rx": {"shape": "square", "max_area_m2": 3.24e-4},
    "sar": {"p_tx_max_w": 0.0846},
}

ASYMMETRIC = {
    "f0_hz": 40e6,
    "k": 0.2,
    "l1_pinned_h": 525.7e-9,
    "tx": {"shape": "square", "max_area_m2": 9e-4},
    "rx": {"shape": "square", "max_area_m2": 25e-6},
    "tissue": {"enabled": False},
}


def _csv_writer_text(rows) -> str:
    """The sweep CSV as csv.writer writes each field's '%.12g' text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(pipeline.SWEEP_HEADER)
    for row in rows:
        writer.writerow([f"{getattr(row, name):.12g}" for name in
                         ("f", "s11_db", "s21_db", "s22_db", "pte_pct", "pte_max_pct")])
    return buf.getvalue()


def _assert_same_lines(got: str, want: str):
    """got == want, naming the first line that differs: a diff of two
    megabyte texts would take minutes."""
    got, want = got.split("\r\n"), want.split("\r\n")
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert got[i:i + 1] == want[i:i + 1], f"line {i}"
    assert len(got) == len(want)


@pytest.fixture(scope="module")
def symmetric_report():
    return run_design(spec_from_dict(SYMMETRIC))


@pytest.fixture(scope="module")
def asymmetric_report():
    return run_design(spec_from_dict(ASYMMETRIC))


class TestSpecParsing:
    def test_defaults(self):
        spec = spec_from_dict({"f0_hz": 10e6})
        assert spec.ports == PortPair(50, 50)
        assert spec.k == 0.1
        assert spec.tissue.enabled

    def test_missing_frequency_rejected(self):
        with pytest.raises(ValueError):
            spec_from_dict({})

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            spec_from_dict({"f0_hz": 1e7, "tx": {"shape": "pentagram"}})

    def test_estimate_requires_distance(self):
        with pytest.raises(ValueError):
            spec_from_dict({"f0_hz": 1e7, "k": "estimate"})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SYMMETRIC))
        spec = load_design_spec(path)
        assert spec.f0 == 20e6
        assert spec.sar_p_tx_max == pytest.approx(0.0846)

    def test_readme_schema_is_accepted(self):
        # The README's schema block and layer record, with // comments
        # stripped, are specs the reader takes as they stand.
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Design spec schema", 1)[1]
        schema, layer = (json.loads(re.sub(r"//.*", "", block))
                         for block in re.findall(r"```jsonc\n(.*?)```", section, re.S))
        spec = spec_from_dict(schema)
        assert spec.harvest.constraints.q_range == (1.0, 2.0)
        assert spec.harvest.constraints.tissue_z == complex(50.0, 0.0)
        spec = spec_from_dict({"f0_hz": 20e6, "tissue": {"layers": [layer]}})
        assert spec.tissue.layers[0].name == "muscle"

    def test_size_limits_admit_their_bound(self):
        spec = spec_from_dict({
            "f0_hz": 20e6, "tx": {"max_area_m2": pipeline.MAX_AREA},
            "tissue": {"sections_per_layer": pipeline.MAX_SECTIONS},
            "harvester": {"v_rx_v": 0.05, "target_v_out_v": 1.0, "n_max": pipeline.MAX_STAGES}})
        assert spec.tx.max_area == 1e-2 and spec.tissue.sections_per_layer == 1000
        assert spec.harvest.constraints.n_range[-1] == 10_000

    def test_harvester_defaults_come_from_the_harvester_module(self):
        spec = spec_from_dict({"f0_hz": 20e6, "ports": {"zp2_ohm": 75.0},
                               "harvester": {"v_rx_v": 0.05, "target_v_out_v": 1.0}})
        c = spec.harvest.constraints
        assert c.n_range == tuple(range(harvester.DEFAULT_N_MIN, harvester.DEFAULT_N_MAX + 1))
        assert c.tissue_z == complex(75.0, 0.0) and c.f0 == 20e6
        assert (c.r_stage, c.c_stage) == (harvester.DEFAULT_STAGE_R, harvester.DEFAULT_STAGE_C)

    def test_stage_model_checked_when_the_spec_is_read(self):
        with pytest.raises(ValueError, match="^harvester: r_stage must be finite and > 0$"):
            spec_from_dict({"f0_hz": 20e6, "harvester": {
                "v_rx_v": 0.05, "target_v_out_v": 1.0, "r_stage_ohm": -1}})
        spec = spec_from_dict({"f0_hz": 20e6, "harvester": {
            "v_rx_v": 0.05, "target_v_out_v": 1.0, "r_stage_ohm": 5e3, "c_stage_f": 3e-13}})
        assert (spec.harvest.constraints.r_stage, spec.harvest.constraints.c_stage) == (5e3, 3e-13)


def test_readme_library_use_runs():
    # The README's Library use block runs as it stands and reads what it says.
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
    ns = {}
    exec(compile(block, "README.md", "exec"), ns)
    best, point = ns["best"], ns["point"]
    assert ns["link_s"] is best.s and ns["loss_db"] == best.s21_db
    assert max(best.s11_db, best.s22_db) < imn.RETURN_LOSS_FLOOR_DB
    assert ns["loss_db"] == pytest.approx(-0.854, abs=5e-4)
    assert point in ns["sizing"].table and (ns["stages"], point.q) == (9, 2.0)
    assert ns["v_dc"] == pytest.approx(1.06, abs=5e-3)


LAYER = {"name": "muscle", "eps_inf": 4.0, "dispersions": [[50.0, 7.23e-12, 0.1]],
         "sigma_s_per_m": 0.2, "thickness_m": 0.01}

# (spec file text, dotted path the one-line error must name)
BAD_SPECS = [
    ("[1]", "design spec"),
    ('{"f0_hz": null}', "f0_hz"),
    ('{"k": [1]}', "k"),
    ('{"tx": "square"}', "tx"),
    ('{"kk": 0.3, "tisue": {}}', "kk"),
    ('{"f0_hz": 2e7, "r1_init_ohm": Infinity}', "r1_init_ohm"),
    ('{"f0_hz": 2e7, "ports": {"zp1_ohm": NaN}}', "ports.zp1_ohm"),
    ('{"f0_hz": 2e7, "tissue": {"sections_per_layer": 2.7}}', "tissue.sections_per_layer"),
    ('{"f0_hz": 2e7, "tissue": {"enabled": "no"}}', "tissue.enabled"),
    ('{"f0_hz": 2e7, "fab": {"substrate_thickness_m": 1e-4}}', "fab.substrate_thickness_m"),
    ('{"f0_hz": 2e7, "sar": {"sar_limit_w_per_kg": 1.6}}', "sar.sar_limit_w_per_kg"),
    (json.dumps({"f0_hz": 2e7, "tissue": {"layers": [LAYER, dict(LAYER, thickness_m="1 cm")]}}),
     "tissue.layers[1].thickness_m"),
    (json.dumps({"f0_hz": 2e7, "harvester": {"v_rx_v": 0.05}}), "harvester.target_v_out_v"),
    # Size limits: the work of a run grows with these.
    ('{"f0_hz": 2e7, "tissue": {"sections_per_layer": 1001}}', "tissue.sections_per_layer"),
    ('{"f0_hz": 2e7, "rx": {"max_area_m2": 0.0101}}', "rx.max_area_m2"),
    (json.dumps({"f0_hz": 2e7, "harvester": {"v_rx_v": 0.05, "target_v_out_v": 1.0,
                                             "n_max": 10001}}), "harvester.n_max"),
    # 2 n_max v_t overflows.
    (json.dumps({"f0_hz": 2e7, "harvester": {"v_rx_v": 0.05, "target_v_out_v": 1.0,
                                             "v_t_v": 1.7e308, "n_max": 2}}), "harvester"),
]


@pytest.mark.parametrize("text, path", BAD_SPECS)
def test_bad_spec_exits_2_naming_its_key(tmp_path, capsys, text, path):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    assert cli.main(["design", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"validation error: {path}: "), err


class TestSymmetricDesign:
    def test_optimal_inductance(self, symmetric_report):
        assert abs(symmetric_report.l_opt - 400.4e-9) / 400.4e-9 < 0.02
        assert symmetric_report.l1_target == symmetric_report.l2_target

    def test_feasible_coils(self, symmetric_report):
        for stage in (symmetric_report.tx_stage, symmetric_report.rx_stage):
            assert abs(stage.inductance - symmetric_report.l1_target) / symmetric_report.l1_target <= 0.01
            assert stage.geometry.area <= 3.24e-4 * (1 + 1e-9)

    def test_feasible_imn(self, symmetric_report):
        assert symmetric_report.imn_synthesis.solutions
        best = symmetric_report.best_imn()
        assert best.s11_db <= -40 and best.s22_db <= -40

    def test_pte_consistency(self, symmetric_report):
        p = symmetric_report.pte_report
        assert p.gamma == 1.0
        assert p.pte == pytest.approx(p.pte_max, rel=1e-6)
        assert 0.0 < p.pte < 1.0

    def test_sar_budget(self, symmetric_report):
        assert symmetric_report.sar.pdl_max == pytest.approx(
            0.0846 * symmetric_report.pte_report.pte, rel=1e-12)

    def test_effective_params_single_source(self, symmetric_report):
        # The matching stage consumed the same tissue-modified network
        # the re-extracted values describe.
        ex = symmetric_report.extraction
        assert ex.valid
        assert ex.r2 > symmetric_report.link.coils.r2  # embedded side got lossier


class TestAsymmetricDesign:
    def test_pinned_split(self, asymmetric_report):
        assert asymmetric_report.l1_target == pytest.approx(525.7e-9)
        assert asymmetric_report.l2_target == pytest.approx(80e-9, rel=2e-3)

    def test_rx_fits_small_implant(self, asymmetric_report):
        assert asymmetric_report.rx_stage.geometry.area <= 25e-6 * (1 + 1e-9)
        assert abs(asymmetric_report.rx_stage.inductance - asymmetric_report.l2_target) \
            / asymmetric_report.l2_target <= 0.01


class TestInfeasiblePaths:
    def test_area_cap_halts_at_synthesis(self):
        bad = dict(SYMMETRIC, rx={"shape": "square", "max_area_m2": (0.5e-3) ** 2})
        with pytest.raises(InfeasibleDesignError) as err:
            run_design(spec_from_dict(bad))
        assert "rx coil synthesis" in str(err.value)

    def test_both_sides_infeasible_names_tx(self):
        # Both sides are synthesized in one pass; the TX side is reported.
        side = {"shape": "square", "max_area_m2": (0.5e-3) ** 2}
        with pytest.raises(InfeasibleDesignError) as err:
            run_design(spec_from_dict(dict(SYMMETRIC, tx=side, rx=dict(side, shape="hexagonal"))))
        assert err.value.stage == "tx coil synthesis"

    def test_harvester_halts_when_unreachable(self):
        bad = dict(SYMMETRIC)
        bad["harvester"] = {"v_rx_v": 0.05, "target_v_out_v": 100.0,
                            "n_min": 1, "n_max": 5, "q_values": [1.0]}
        with pytest.raises(InfeasibleDesignError) as err:
            run_design(spec_from_dict(bad))
        assert err.value.stage == "harvester sizing"


class TestReport:
    def test_deterministic_text(self):
        a = run_design(spec_from_dict(SYMMETRIC)).text()
        b = run_design(spec_from_dict(SYMMETRIC)).text()
        assert a == b

    def test_numbers_carry_units(self, symmetric_report):
        text = symmetric_report.text()
        body = text.split("[footer]")[0]
        assert "nH" in body and "MHz" in body and "ohm" in body
        assert "mm^2" in body and "pF" in body
        # dB-annotated and percentage lines included
        assert "dB" in body and "%" in body

    def test_footer_is_key_value(self, symmetric_report):
        footer = symmetric_report.text().split("[footer]\n")[1]
        for line in footer.strip().splitlines():
            key, _, value = line.partition("=")
            assert key and value

    def test_si_formatting(self):
        assert si(403.89e-9, "H") == "403.9 nH"
        assert si(20e6, "Hz") == "20 MHz"
        assert si(0.0, "V") == "0 V"
        assert si(52.7e-12, "F") == "52.7 pF"
        assert si(math.inf, "s") == "inf s"
        assert si(-math.inf, "V") == "-inf V"
        assert si(math.nan, "V") == "nan V"
        # The prefix is that of the value rounded to 4 significant digits.
        assert si(999.96, "ohm") == "1 kohm"
        assert si(-999.96, "ohm") == "-1 kohm"
        assert si(999.94, "ohm") == "999.9 ohm"
        assert si(0.99996, "V") == "1 V"
        assert si(999.96e-15, "F") == "1 pF"
        assert si(999.96e-18, "F") == "1 fF"
        assert si(0.5e-18, "F") == "0.0005 fF"
        # G stays the largest prefix.
        assert si(999.96e6, "Hz") == "1 GHz"
        assert si(999.96e9, "Hz") == "1000 GHz"


class TestSweep:
    def test_bare_link_peaks_near_f_opt(self):
        # Air-only model: the swept |S21| peak must land on the coil
        # pair's analytic peak frequency.
        spec = spec_from_dict(dict(SYMMETRIC, tissue={"enabled": False}))
        report = run_design(spec)
        freqs = frequency_grid(2e6, 200e6, 501, "log")
        rows = sweep_link(report.link, freqs, with_imn=False)
        best = max(rows, key=lambda r: r.s21_db)
        assert abs(math.log(best.f / report.f_opt)) < math.log(200e6 / 2e6) / 100

    def test_matched_link_reflection_minimum_at_f0(self, symmetric_report):
        freqs = frequency_grid(2e6, 200e6, 501, "log")
        rows = sweep_link(symmetric_report.link, freqs)
        best = min(rows, key=lambda r: r.s11_db)
        assert abs(math.log(best.f / 20e6)) < math.log(200e6 / 2e6) / 100

    def test_csv_shape(self, symmetric_report):
        rows = sweep_link(symmetric_report.link, frequency_grid(1e7, 4e7, 11, "linear"))
        text = sweep_csv_text(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "f_hz,s11_db,s21_db,s22_db,pte_pct,pte_max_pct"
        assert len(lines) == 12
        assert "," in lines[1] and "." in lines[1]

    def test_csv_bytes_match_csv_writer_on_edge_rows(self, symmetric_report):
        edges = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                 sys.float_info.max, -sys.float_info.max, 1e16, -1e16, 1.0, 123456789012.5]
        rows = [pipeline.SweepRow(*(edges[(i + k) % len(edges)] for k in range(6)))
                for i in range(len(edges))]
        rows += sweep_link(symmetric_report.link, frequency_grid(1e7, 4e7, 11, "linear"))
        assert sweep_csv_text(rows) == _csv_writer_text(rows)
        assert sweep_csv_text([]) == _csv_writer_text([])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.floats()] * 6), max_size=8))
    def test_csv_bytes_match_csv_writer_on_any_floats(self, rows):
        # NaN, infinities, signed zeros and subnormals included.
        rows = [pipeline.SweepRow(*row) for row in rows]
        assert sweep_csv_text(rows) == _csv_writer_text(rows)

    def test_csv_fields_match_percent_g_on_a_million_values(self):
        # The array writer against the per-row '%' format it replaced, on
        # every magnitude, near-ties at the 13th digit, neighbours of
        # powers of ten and arbitrary bit patterns.
        rng = np.random.default_rng(23)
        n = 144_000  # 7 * n values
        ties = (rng.integers(10 ** 11, 10 ** 12, n) + 0.5) * 10.0 ** rng.integers(-15, 1, n)
        powers = 10.0 ** rng.integers(-8, 16, n)
        values = np.concatenate([
            10.0 ** rng.uniform(-8, 16, n), ties, np.nextafter(ties, 0.0),
            np.nextafter(ties, np.inf), np.nextafter(np.nextafter(powers, 0.0), 0.0),
            np.nextafter(powers, np.inf)]) * rng.choice([-1.0, 1.0], 6 * n)
        table = np.concatenate([values, rng.integers(-2 ** 63, 2 ** 63 - 1, n).view(float)])
        rng.shuffle(table)
        table = table.reshape(-1, 6)
        line = ",".join(["%.12g"] * 6) + "\r\n"
        want = ",".join(pipeline.SWEEP_HEADER) + "\r\n" + "".join(
            [line % tuple(row) for row in table.tolist()])
        _assert_same_lines(sweep_csv_text(pipeline.SweepRows(table)), want)

    def test_csv_of_the_largest_sweep_matches_csv_writer(self, symmetric_report):
        rows = sweep_link(symmetric_report.link,
                          frequency_grid(1e6, 4e8, pipeline.MAX_SWEEP_POINTS))
        _assert_same_lines(sweep_csv_text(rows), _csv_writer_text(rows))

    def test_rows_are_built_on_read(self, symmetric_report):
        rows = sweep_link(symmetric_report.link, frequency_grid(1e7, 4e7, 11, "linear"))
        built = list(rows)
        assert [rows[i] for i in range(len(rows))] == built
        assert rows[-1] == built[-1] and rows[2:5] == tuple(built[2:5])
        assert all(type(value) is float for row in built for value in row)
        assert all(type(value) is float for value in rows[3])
        with pytest.raises(TypeError):
            rows[0] = built[1]

    def test_imported_sweep_equals_rows(self, tmp_path, symmetric_report):
        freqs = [10e6, 20e6, 30e6]
        mats = [symmetric_report.link.s_at(f) for f in freqs]
        record = record_from_matrices(freqs, mats)
        path = tmp_path / "meas.s2p"
        write_touchstone(record, path)
        table = tissue.import_override(read_touchstone(path))
        rows = sweep_table(table)
        assert [r.f for r in rows] == freqs
        direct = [20 * math.log10(abs(m.m21)) for m in mats]
        for row, want in zip(rows, direct):
            assert row.s21_db == pytest.approx(want, abs=1e-9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            frequency_grid(1e6, 1e5, 10, "log")
        with pytest.raises(ValueError):
            frequency_grid(1e6, 1e7, 1, "log")
        with pytest.raises(ValueError):
            frequency_grid(1e6, 1e7, 10, "cubic")
        with pytest.raises(ValueError):
            frequency_grid(1e6, math.inf, 10, "log")


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "wptkit.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestCli:
    def test_design_command(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SYMMETRIC))
        out = tmp_path / "report.txt"
        proc = run_cli("design", str(spec), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        text = out.read_text()
        assert "[footer]" in text and "l_opt_h=" in text

    def test_sweep_command(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SYMMETRIC))
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--spec", str(spec), "--points", "11",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12

    def test_output_is_utf8_under_an_ascii_locale(self, tmp_path):
        # A layer name outside ASCII: --out writes UTF-8 whatever the
        # locale, and a stdout that cannot encode it is an i/o error.
        layer = {"name": "m\u00fasculo", "eps_inf": 4.0, "dispersions": [[10.0, 1e-9, 0.1]],
                 "sigma_s_per_m": 0.2, "thickness_m": 0.01}
        data = {"f0_hz": 20e6, "tissue": {"layers": [layer]}}
        spec, out = tmp_path / "spec.json", tmp_path / "report.txt"
        spec.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")

        def run(*args):
            return subprocess.run([sys.executable, "-X", "utf8=0", "-m", "wptkit.cli", *args],
                                  capture_output=True, text=True, encoding="utf-8", env=env)

        proc = run("design", str(spec), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes().decode("utf-8") == pipeline.run_design(spec_from_dict(data)).text()
        proc = run("design", str(spec))
        assert proc.returncode == 4 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("i/o error: ")

    def test_validation_exit_code(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"f0_hz": -1}))
        assert run_cli("design", str(spec)).returncode == 2

    def test_io_exit_code(self, tmp_path):
        assert run_cli("design", str(tmp_path / "nope.json")).returncode == 4

    def test_infeasible_exit_code(self, tmp_path):
        spec = tmp_path / "tiny.json"
        bad = dict(SYMMETRIC, rx={"shape": "square", "max_area_m2": 2.5e-7})
        spec.write_text(json.dumps(bad))
        assert run_cli("design", str(spec)).returncode == 3

    @pytest.mark.parametrize("command", ["design", "sweep"])
    def test_overflowing_dispersion_is_a_validation_error(self, tmp_path, capsys, command):
        # 2 pi f tau overflows at f0 for tau = 1e303, and from about 28.7 MHz
        # for tau = 1e300, inside the sweep's band but above f0.
        tau = {"design": 1e303, "sweep": 1e300}[command]
        layer = {"name": "x", "eps_inf": 4.0, "dispersions": [[10.0, tau, 0.1]],
                 "sigma_s_per_m": 0.2, "thickness_m": 0.01}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"f0_hz": 2e7, "tissue": {"layers": [layer]}}))
        args = {"design": ["design", str(spec)],
                "sweep": ["sweep", "--spec", str(spec), "--start", "1e6", "--stop", "1e12"]}
        assert cli.main(args[command]) == 2
        at = 2e7
        if command == "sweep":
            at = next(f for f in frequency_grid(1e6, 1e12, pipeline.DEFAULT_SWEEP_POINTS)
                      if 2.0 * math.pi * f * tau == math.inf)
            assert 2e7 < at < 3e7
        assert capsys.readouterr().err == \
            f"validation error: layer 'x': 2 pi f tau overflows at f = {at!r} Hz\n"

    def test_overflowing_sweep_names_the_first_failing_frequency(self, tmp_path, capsys):
        # Above about 0.1 THz the default link's S parameters overflow; the
        # one-line error names the first sweep frequency at which they do.
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"f0_hz": 2e7}))
        assert cli.main(["sweep", "--spec", str(spec), "--start", "1e6", "--stop", "1e12"]) == 2
        at = 119124200802.73763
        assert capsys.readouterr().err == \
            f"validation error: m12 must be finite, got (nan+nanj) at f = {at!r} Hz\n"
        grid = frequency_grid(1e6, 1e12, pipeline.DEFAULT_SWEEP_POINTS)
        link = pipeline.run_design(pipeline.spec_from_dict({"f0_hz": 2e7})).link
        assert len(pipeline.sweep_link(link, grid[:grid.index(at)])) == grid.index(at)

    def test_zero_coupling_is_a_validation_error(self, tmp_path):
        spec = tmp_path / "k0.json"
        spec.write_text(json.dumps({"f0_hz": 20e6, "k": 0}))
        proc = run_cli("design", str(spec))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_degenerate_network_is_a_validation_error(self, tmp_path):
        # An override with no transmission has no ABCD form; the error
        # ends in an exit code and one line, not a traceback.
        s2p = tmp_path / "open.s2p"
        s2p.write_text("# MHZ S RI R 50\n10 0.5 0 0 0 0 0 0.5 0\n30 0.5 0 0 0 0 0 0.5 0\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"f0_hz": 20e6, "tissue": {"override_s2p": str(s2p)}}))
        proc = run_cli("design", str(spec))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    @pytest.mark.parametrize("argv", [
        ("design", "{spec}"),
        ("coil", "synth", "--target-l", "80e-9", "--max-area", "1e-6"),
    ])
    def test_near_miss_area_in_mm2(self, tmp_path, argv):
        spec = tmp_path / "tiny.json"
        spec.write_text(json.dumps({"f0_hz": 20e6, "rx": {"max_area_m2": 1e-6}}))
        proc = run_cli(*(arg.format(spec=spec) for arg in argv))
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        area = re.search(r"area (\S+) mm\^2", proc.stderr)
        assert area is not None, proc.stderr
        assert 0.0 < float(area.group(1)) <= 1.0  # under the 1 mm^2 cap

    @pytest.mark.parametrize("argv", [
        ("coil", "synth", "--target-l", "80e-9", "--max-area", "25e-6", "--top", "0",
         "--format", "csv"),
        ("match", "{spec}", "--top", "0"),
        ("sweep", "--spec", "{spec}", "--points", "11", "--start", "0"),
        ("sweep", "--spec", "{spec}", "--points", "11", "--stop", "0"),
        ("sweep", "--s2p", "{s2p}", "--points", "11", "--start", "0"),
        ("sweep", "--s2p", "{s2p}", "--start", "0"),
        ("harvester", "explore", "--v-rx", "nan", "--target-v", "1"),
        ("harvester", "explore", "--v-rx", "0.05", "--target-v", "1", "--q", "nan"),
        ("harvester", "explore", "--v-rx", "inf", "--target-v", "1"),
        ("harvester", "explore", "--v-rx", "0.05", "--target-v", "1", "--q", "inf"),
        ("harvester", "explore", "--v-rx", "0.05", "--target-v", "1", "--c-store", "nan"),
        ("harvester", "explore", "--v-rx", "0.05", "--target-v", "1", "--tissue-r", "nan"),
        ("harvester", "explore", "--v-rx", "0.05", "--target-v", "1", "--v-t", "inf"),
        ("harvester", "explore", "--v-rx", "0.05", "--target-v", "1", "--f0", "inf"),
        ("sweep", "--s2p", "{s2p}", "--stop", "inf"),
        ("coil", "synth", "--target-l", "inf", "--max-area", "25e-6"),
        ("coil", "synth", "--target-l", "80e-9", "--max-area", "25e-6", "--f0", "inf"),
        ("coil", "synth", "--target-l", "80e-9", "--max-area", "25e-6", "--min-width", "inf"),
        ("tissue", "table", "--f", "inf"),
    ])
    def test_bad_flag_is_a_validation_error(self, tmp_path, capsys, argv):
        self.assert_validation_error(tmp_path, capsys, argv)

    @pytest.mark.parametrize("argv", [
        ("sweep", "--spec", "{spec}", "--points", "100002"),
        ("sweep", "--s2p", "{s2p}", "--points", "100002"),
        ("harvester", "explore", "--v-rx", "0.05", "--target-v", "1", "--n-max", "10001"),
        ("coil", "synth", "--target-l", "80e-9", "--max-area", "0.0101"),
    ])
    def test_size_limit_names_its_flag(self, tmp_path, capsys, argv):
        err = self.assert_validation_error(tmp_path, capsys, argv)
        assert argv[-2] in err, err

    @staticmethod
    def assert_validation_error(tmp_path, capsys, argv) -> str:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(SYMMETRIC, tissue={"enabled": False})))
        s2p = tmp_path / "link.s2p"
        s2p.write_text("# MHZ S RI R 50\n10 0.5 0 0.5 0 0.5 0 0.5 0\n30 0.5 0 0.5 0 0.5 0 0.5 0\n")
        assert cli.main([arg.format(spec=spec, s2p=s2p) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("validation error: "), err
        return err

    @pytest.mark.parametrize("argv, want", [
        ((), [10e6, 30e6]),
        (("--start", "15e6", "--stop", "20e6"), [15e6, 20e6]),
        (("--stop", "20e6", "--points", "3", "--scale", "linear"), [10e6, 15e6, 20e6]),
    ])
    def test_s2p_sweep_span(self, tmp_path, capsys, argv, want):
        # Without --start/--stop/--points the file's rows are swept; with
        # any of them, a grid whose missing ends and size come from the file.
        s2p = tmp_path / "link.s2p"
        s2p.write_text("# MHZ S RI R 50\n10 0.5 0 0.5 0 0.5 0 0.5 0\n30 0.5 0 0.5 0 0.5 0 0.5 0\n")
        assert cli.main(["sweep", "--s2p", str(s2p), *argv]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        {"f0_hz": 5e-324},                   # L_opt overflows
        {"f0_hz": 1e300},                    # omega^2 overflows
        {"f0_hz": 20e6, "k": 5e-324},        # M underflows to 0
    ])
    def test_float_range_edges_are_validation_errors(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["design", str(path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_non_finite_s2p_value_is_a_file_error(self, tmp_path, capsys):
        s2p = tmp_path / "nan.s2p"
        s2p.write_text("# MHZ S RI R 50\n10 0.5 0 0.5 0 0.5 0 0.5 0\n30 0.5 0 nan 0 0.5 0 0.5 0\n")
        assert cli.main(["sweep", "--s2p", str(s2p)]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("file error: line 3: "), err

    def test_undecodable_s2p_is_a_file_error(self, tmp_path, capsys):
        s2p = tmp_path / "latin.s2p"
        s2p.write_bytes(b"# MHZ S RI R 50\n10 0.5 0 0.5 0 0.5 0 0.5 0\n! \xff\n"
                        b"30 0.5 0 0.5 0 0.5 0 0.5 0\n")
        assert cli.main(["sweep", "--s2p", str(s2p)]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("file error: line 3: "), err

    def test_undecodable_spec_is_an_io_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"f0_hz": 20e6, "tissue": {"layers": [{"name": "\xff"}]}}')
        assert cli.main(["design", str(spec)]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("i/o error: "), err

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000,
                                      ' {"a":' * 100_000 + "1" + "}" * 100_000],
                             ids=["arrays", "objects"])
    def test_spec_nested_past_the_decoder_is_an_io_error(self, tmp_path, capsys, text):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        for args in (["design", str(spec)], ["match", str(spec)], ["sweep", "--spec", str(spec)]):
            assert cli.main(args) == 4
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1, err
            assert err.startswith("i/o error: value nested too deeply: "), err

    @pytest.mark.parametrize("text, path", [
        ('{"f0_hz": 2e7, "f0_hz": 3e7}', "f0_hz"),
        ('{"f0_hz": 2e7, "tx": {"shape": "square", "shape": "square"}}', "tx.shape"),
        ('{"f0_hz": 2e7, "tissue": {"layers": [{}, {"name": "fat", "name": "skin"}]}}',
         "tissue.layers[1].name"),
    ], ids=["top-level", "nested", "in-array"])
    def test_repeated_spec_key_exits_2_naming_it(self, tmp_path, capsys, text, path):
        spec = tmp_path / "spec.json"
        spec.write_text(text)
        for args in (["design", str(spec)], ["match", str(spec)], ["sweep", "--spec", str(spec)]):
            assert cli.main(args) == 2
            assert capsys.readouterr() == ("", f"validation error: {path}: duplicate key\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python converts integer literals of any length")
    def test_integer_past_the_digit_limit_is_an_io_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"f0_hz": ' + "1" * (sys.get_int_max_str_digits() + 700) + "}")
        assert cli.main(["design", str(spec)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("i/o error: "), err

    @pytest.mark.parametrize("argv, text, message", [
        (["design"], '{"f0_hz": ' + "1" * 4300 + "}",
         "f0_hz: expected a finite number, got 11111111111111111111... (4300 digits)"),
        (["design"], '{"f0_hz": 2e7, "tissue": {"sections_per_layer": ' + "9" * 4000 + "}}",
         "tissue.sections_per_layer: must be <= 1000, got 99999999999999999999... (4000 digits)"),
        (["design"], '{"f0_hz": 2e7, "tissue": {"sections_per_layer": 1001}}',
         "tissue.sections_per_layer: must be <= 1000, got 1001"),
        (["design"], '{"f0_hz": 2e7, "tx": {"shape": "' + "x" * 5000 + '"}}',
         "tx.shape: unknown coil shape 'xxxxxxxxxxxxxxxxxxxx... (5000 characters)'; "
         "choose from ['circular', 'hexagonal', 'octagonal', 'square']"),
        (["design"], '{"f0_hz": 2e7, "tx": {"shape": "triangle"}}',
         "tx.shape: unknown coil shape 'triangle'; "
         "choose from ['circular', 'hexagonal', 'octagonal', 'square']"),
        (["design"], '{"f0_hz": 2e7, "' + "z" * 5000 + '": 1}',
         "zzzzzzzzzzzzzzzzzzzz... (5000 characters): unknown key"),
        (["design"], '{"f0_hz": 2e7, "tissue": {"' + "y" * 25 + '": 1}}',
         "tissue.yyyyyyyyyyyyyyyyyyyy... (25 characters): unknown key"),
        (["design"], '{"f0_hz": 2e7, "tissue": {"' + "y" * 24 + '": 1}}',
         f"tissue.{'y' * 24}: unknown key"),
        (["design"], '{"f0_hz": 2e7, "' + "k" * 30 + '": 1, "' + "k" * 30 + '": 2}',
         "kkkkkkkkkkkkkkkkkkkk... (30 characters): duplicate key"),
        (["coil", "synth", "--target-l", "80e-9", "--max-area", "25e-6", "--shape", "q" * 3000],
         None, "--shape: unknown coil shape 'qqqqqqqqqqqqqqqqqqqq... (3000 characters)'; "
               "choose from ['circular', 'hexagonal', 'octagonal', 'square']"),
    ], ids=["wrong-type", "over-the-cap", "short", "shape", "short-shape", "key", "nested-key",
            "24-character-key", "duplicate-key", "coil-synth-shape"])
    def test_long_values_are_cut_short_in_errors(self, tmp_path, capsys, argv, text, message):
        if text is not None:
            spec = tmp_path / "spec.json"
            spec.write_text(text)
            argv = [*argv, str(spec)]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"validation error: {message}\n")

    def test_override_within_import_tolerance_designs(self, tmp_path, capsys):
        # S12 off S21 by 1e-4 relative passes the import check (1e-3), so
        # the design that reads the same table must accept it too.
        link = run_design(spec_from_dict({"f0_hz": 20e6})).link
        freqs = frequency_grid(link.f0 / 10.0, link.f0 * 10.0, 51)
        mats = [netcore.abcd_to_s(link.coil_abcd_at(f), 50.0, 50.0) for f in freqs]
        record = record_from_matrices(freqs, [
            netcore.s_matrix(m.m11, m.m12 * (1 + 1e-4), m.m21, m.m22, 50.0, 50.0)
            for m in mats])
        s2p = tmp_path / "skewed.s2p"
        write_touchstone(record, s2p)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"f0_hz": 20e6, "tissue": {"override_s2p": str(s2p)}}))
        assert cli.main(["sweep", "--s2p", str(s2p), "--out", str(tmp_path / "s.csv")]) == 0
        assert cli.main(["design", str(spec), "--out", str(tmp_path / "r.txt")]) == 0
        assert capsys.readouterr().err == ""

    def test_s2p_convert(self, tmp_path):
        src = tmp_path / "in.s2p"
        src.write_text("# MHZ S MA R 50\n1 0.5 0 1 0 1 0 0.5 0\n2 0.5 0 1 0 1 0 0.5 0\n")
        dst = tmp_path / "out.s2p"
        assert run_cli("s2p", "convert", str(src), str(dst)).returncode == 0
        assert dst.read_text().startswith("# HZ S RI R 50")

    def test_seedless_flag_is_gone(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SYMMETRIC))
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--seedless", "design", str(spec)])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --seedless" in capsys.readouterr().err

    def test_coil_synth_command(self):
        proc = run_cli("coil", "synth", "--target-l", "80e-9",
                       "--max-area", "25e-6", "--top", "2")
        assert proc.returncode == 0, proc.stderr
        assert "L=" in proc.stdout and "area=" in proc.stdout

    def test_coil_synth_far_below_the_skin_effect(self):
        # At 1e-30 Hz the skin depth dwarfs the trace: R_ac is the DC value.
        proc = run_cli("coil", "synth", "--target-l", "80e-9", "--max-area", "25e-6",
                       "--f0", "1e-30", "--top", "1")
        assert proc.returncode == 0, proc.stderr
        assert "R_ac=73.7 mohm" in proc.stdout, proc.stdout

    def test_harvester_huge_stage_impedance(self, tmp_path):
        # |Z|^2 overflows past 1.3e154 ohm; the table still reads R_rect = n r_stage.
        proc = run_cli("harvester", "explore", "--v-rx", "0.05", "--target-v", "1",
                       "--r-stage", "1e300", "--c-stage", "1e-300")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[60].startswith("60,1,6e+301,"), proc.stdout
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(SYMMETRIC, harvester={
            "v_rx_v": 0.05, "target_v_out_v": 1.0, "r_stage_ohm": 1e300, "c_stage_f": 1e-300})))
        proc = run_cli("design", str(spec))
        assert proc.returncode == 0, proc.stderr
        assert "harvester_n=26\n" in proc.stdout

    def test_harvester_infinite_charge_time_has_no_prefix(self):
        proc = run_cli("harvester", "explore", "--v-rx", "0.1", "--target-v", "1",
                       "--i-load", "5e-324", "--n-max", "3")
        assert proc.returncode == 3, proc.stderr
        assert "charge_time=inf s\n" in proc.stdout and "inf G" not in proc.stdout

    def test_harvester_explore_command(self):
        proc = run_cli("harvester", "explore", "--v-rx", "0.05",
                       "--target-v", "1.0", "--n-max", "40")
        assert proc.returncode == 0, proc.stderr
        assert "# chosen:" in proc.stdout

    def test_harvester_explore_strong_drive(self):
        # v_rx / V_T ~ 750: I0 itself overflows a float, ln I0 does not.
        proc = run_cli("harvester", "explore", "--v-rx", "20", "--target-v", "1")
        assert proc.returncode == 0, proc.stderr
        assert "# chosen: n=1" in proc.stdout

    def test_tissue_table_command(self):
        proc = run_cli("tissue", "table", "--f", "2e7")
        assert proc.returncode == 0
        assert "muscle" in proc.stdout and "sigma_eff" in proc.stdout


class TestKEstimation:
    def test_estimated_coupling_flows_through(self):
        spec_dict = {
            "f0_hz": 20e6,
            "k": "estimate",
            "distance_m": 15e-3,
            "tx": {"shape": "square", "max_area_m2": 3.24e-4},
            "rx": {"shape": "square", "max_area_m2": 3.24e-4},
            "tissue": {"enabled": False},
        }
        report = run_design(spec_from_dict(spec_dict))
        assert report.k_source == "estimated"
        assert 0.0 < report.link.coils.k < 1.0
        assert report.imn_synthesis.solutions

    @pytest.mark.parametrize("distance", [1e-12, 1e-300, 5e-324])
    def test_coincident_coils_name_the_distance(self, tmp_path, capsys, distance):
        # Filaments of the two coils meet, so M is inf: the k estimate, not
        # the second synthesis pass at k ~ 1, is reported infeasible.
        spec = {"f0_hz": 2e7, "k": "estimate", "distance_m": distance}
        with pytest.raises(InfeasibleDesignError) as err:
            run_design(spec_from_dict(spec))
        assert err.value.stage == "k estimate"
        assert f"distance_m = {distance!r}: mutual inductance is inf" in str(err.value)
        path = tmp_path / "near.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["design", str(path)]) == 3
        assert capsys.readouterr().err == f"infeasible: {err.value}\n"

    @pytest.mark.parametrize("distance, k", [(1e-6, "1.42"), (1e-9, "37.7")])
    def test_unphysical_coupling_names_the_distance(self, tmp_path, distance, k):
        # M is finite but exceeds sqrt(L_tx L_rx): k >= 1 is rejected by the
        # k estimate, not clamped below 1 and blamed on coil synthesis.
        path = tmp_path / "near.json"
        path.write_text(json.dumps({"f0_hz": 2e7, "k": "estimate", "distance_m": distance}))
        proc = run_cli("design", str(path))
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"infeasible: k estimate: distance_m = {distance!r}: "
                                      f"estimated k = {k}")
        assert len(proc.stderr.splitlines()) == 1


def test_every_built_on_read_sequence_pickles_as_its_tuple():
    # Ranked spiral candidates, IMN solutions, the harvester table and sweep rows.
    spec = dict(SYMMETRIC, harvester={"v_rx_v": 0.05, "target_v_out_v": 1.0})
    report = run_design(spec_from_dict(spec))
    sequences = [
        spiral.synthesize(80e-9, spiral.FabConstraints(max_area=25e-6), spiral.SQUARE).candidates,
        report.imn_synthesis.solutions,
        report.harvest_result.table,
        sweep_link(report.link, frequency_grid(1e7, 4e7, 11)),
    ]
    for seq in sequences:
        assert isinstance(seq, netcore.BuiltOnRead) and len(seq) > 1
        back = pickle.loads(pickle.dumps(seq))
        assert type(back) is tuple and back == tuple(seq)


class TestDesignWork:
    """What one run_design builds: the f0 coil network converted to S once,
    and a validated matrix only where a stage result is one."""

    def test_matrices_built_in_one_design(self, monkeypatch):
        built = []
        post_init = netcore.TwoPortMatrix.__post_init__

        def counting(matrix):
            built.append(matrix.representation.value)
            post_init(matrix)

        monkeypatch.setattr(netcore.TwoPortMatrix, "__post_init__", counting)
        report = run_design(spec_from_dict({"f0_hz": 20e6}))
        # ABCD: the coil pair, the tissue ladder, their cascade and the
        # extraction's S -> ABCD; S: the coil network at f0, the extraction's
        # and the best solution's; Z: the extraction's.  None per variant.
        assert sorted(built) == ["ABCD"] * 4 + ["S"] * 3 + ["Z"]
        assert len(report.imn_synthesis.solutions) == 16

    def test_coil_network_converted_to_s_once(self, monkeypatch):
        calls = []
        abcd_to_s = netcore.abcd_to_s

        def counting(*args):
            calls.append(args[0])
            return abcd_to_s(*args)

        monkeypatch.setattr(netcore, "abcd_to_s", counting)
        monkeypatch.setattr(imn, "abcd_to_s", counting)
        report = run_design(spec_from_dict({"f0_hz": 20e6, "k": "estimate", "distance_m": 15e-3}))
        assert len(calls) == 1
        assert calls[0] == report.link.coil_abcd_at(20e6)

    def test_numpy_error_state_is_the_callers_again(self):
        # Each numpy stage enters its own floating-point context; numpy 1.x
        # would leave "ignore" behind if one were entered again while open.
        before = np.geterr()
        report = run_design(spec_from_dict({"f0_hz": 2e7, "k": "estimate", "distance_m": 5e-3,
                                            "harvester": {"v_rx_v": 0.5, "target_v_out_v": 1.0}}))
        sweep_csv_text(sweep_link(report.link, frequency_grid(1e7, 4e7, 11)))
        assert np.geterr() == before
