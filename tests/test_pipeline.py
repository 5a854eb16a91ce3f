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
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wptkit import cli, harvester, imn, pipeline, tissue
from wptkit.coil import PortPair
from wptkit.errors import InfeasibleDesignError
from wptkit.pipeline import (
    DesignSpec,
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
        readme = (Path(__file__).parent.parent / "README.md").read_text()
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
        assert (spec.harvest.r_stage, spec.harvest.c_stage) == (
            harvester.DEFAULT_STAGE_R, harvester.DEFAULT_STAGE_C)


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
    (json.dumps({"f0_hz": 2e7, "tissue": {"layers": [LAYER, dict(LAYER, thickness_m="1 cm")]}}),
     "tissue.layers[1].thickness_m"),
    (json.dumps({"f0_hz": 2e7, "harvester": {"v_rx_v": 0.05}}), "harvester.target_v_out_v"),
    # Size limits: the work of a run grows with these.
    ('{"f0_hz": 2e7, "tissue": {"sections_per_layer": 1001}}', "tissue.sections_per_layer"),
    ('{"f0_hz": 2e7, "rx": {"max_area_m2": 0.0101}}', "rx.max_area_m2"),
    (json.dumps({"f0_hz": 2e7, "harvester": {"v_rx_v": 0.05, "target_v_out_v": 1.0,
                                             "n_max": 10001}}), "harvester.n_max"),
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
        assert ex.r2 > symmetric_report.coils.r2  # embedded side got lossier


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
        def reference(rows):
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(pipeline.SWEEP_HEADER)
            for row in rows:
                writer.writerow([f"{getattr(row, name):.12g}" for name in
                                 ("f", "s11_db", "s21_db", "s22_db", "pte_pct", "pte_max_pct")])
            return buf.getvalue()

        edges = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                 sys.float_info.max, -sys.float_info.max, 1e16, -1e16, 1.0, 123456789012.5]
        rows = [pipeline.SweepRow(*(edges[(i + k) % len(edges)] for k in range(6)))
                for i in range(len(edges))]
        rows += sweep_link(symmetric_report.link, frequency_grid(1e7, 4e7, 11, "linear"))
        assert sweep_csv_text(rows) == reference(rows)
        assert sweep_csv_text([]) == reference([])

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

    def test_s2p_convert(self, tmp_path):
        src = tmp_path / "in.s2p"
        src.write_text("# MHZ S MA R 50\n1 0.5 0 1 0 1 0 0.5 0\n2 0.5 0 1 0 1 0 0.5 0\n")
        dst = tmp_path / "out.s2p"
        assert run_cli("s2p", "convert", str(src), str(dst)).returncode == 0
        assert dst.read_text().startswith("# HZ S RI R 50")

    def test_seedless_flag_accepted(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SYMMETRIC))
        proc = run_cli("--seedless", "design", str(spec))
        assert proc.returncode == 0

    def test_coil_synth_command(self):
        proc = run_cli("coil", "synth", "--target-l", "80e-9",
                       "--max-area", "25e-6", "--top", "2")
        assert proc.returncode == 0, proc.stderr
        assert "L=" in proc.stdout and "area=" in proc.stdout

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
        assert 0.0 < report.coils.k < 1.0
        assert report.imn_synthesis.solutions
