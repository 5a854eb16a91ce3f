"""Byte-exact reference outputs.

The reports of four specs, the three sweep CSVs of the default spec and
two ``coil synth`` candidate lists are compared byte for byte with files
in ``tests/data``.  The references pin what a refactor must not move:
every report line and footer digit, including values that sit at the
rounding floor (``s11_link_db`` near -250 dB), every sweep row, and
every synthesis candidate in rank order.
"""

from pathlib import Path

import pytest

from wptkit import cli, netcore, pipeline, tissue
from wptkit.touchstone import read_touchstone, record_from_matrices, write_touchstone

DATA = Path(__file__).parent / "data"

README_SAR = {"p_tx_max_w": 0.0846, "sar_limit_w_per_kg": 1.6}
README_HARVESTER = {
    "v_rx_v": 0.05, "target_v_out_v": 1.0,
    "n_min": 1, "n_max": 60, "q_values": [1.0, 2.0],
    "max_charge_time_s": 10.0, "i_load_avg_a": 1e-6,
    "c_store_f": 4.7e-7, "v_t_v": 0.0267,
    "r_stage_ohm": 1000.0, "c_stage_f": 1e-12,
    "tissue_z_ohm": [50.0, 0.0],
}

SPECS = {
    "default": {"f0_hz": 20e6},
    "estimate": {"f0_hz": 20e6, "k": "estimate", "distance_m": 0.015},
    # Feasible with n = 9 stages at q = 2.
    "pinned_harvester": {"f0_hz": 20e6, "l1_pinned_h": 6e-7,
                         "rx": {"max_area_m2": 2.5e-5},
                         "sar": README_SAR, "harvester": README_HARVESTER},
    # Asymmetric split with an RX cap under 5 x 5 mm^2.
    "asymmetric": {"f0_hz": 40e6, "k": 0.2, "l1_pinned_h": 5.257e-7,
                   "rx": {"shape": "circular", "max_area_m2": 2.4e-5}},
}

SWEEP_POINTS = 201


def report_text(name: str) -> str:
    return pipeline.run_design(pipeline.spec_from_dict(SPECS[name])).text()


def default_sweeps(workdir: Path) -> dict[str, str]:
    """IMN, bare and .s2p-table sweep CSVs of the default spec over
    f0/10 .. 10 f0.  The table holds the tissue-modified coil S data on
    the same grid and goes through a Touchstone file and back."""
    link = pipeline.run_design(pipeline.spec_from_dict(SPECS["default"])).link
    ports = link.ports
    freqs = pipeline.frequency_grid(link.f0 / 10.0, link.f0 * 10.0, SWEEP_POINTS)
    record = record_from_matrices(
        freqs, [netcore.abcd_to_s(link.coil_abcd_at(f), ports.zp1, ports.zp2)
                for f in freqs], ports.zp1)
    path = workdir / "default.s2p"
    write_touchstone(record, path)
    table = tissue.import_override(read_touchstone(path))
    return {
        "imn": pipeline.sweep_csv_text(pipeline.sweep_link(link, freqs)),
        "bare": pipeline.sweep_csv_text(pipeline.sweep_link(link, freqs, with_imn=False)),
        "table": pipeline.sweep_csv_text(pipeline.sweep_table(table)),
    }


def reference(filename: str) -> str:
    return (DATA / filename).read_bytes().decode()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_report_matches_reference(name):
    assert report_text(name) == reference(f"report_{name}.txt")


def test_default_sweeps_match_reference(tmp_path):
    for kind, text in default_sweeps(tmp_path).items():
        assert text == reference(f"sweep_default_{kind}.csv"), kind


# Every candidate (--top beyond any count), square coils at 20 MHz.
COIL_SYNTH = {
    "coil_synth_80nH_5mm_square.csv": ("80e-9", "25e-6"),
    "coil_synth_400nH_18mm_square.csv": ("400.4e-9", "3.24e-4"),
}


@pytest.mark.parametrize("filename", sorted(COIL_SYNTH))
def test_coil_synth_matches_reference(filename, tmp_path):
    target, cap = COIL_SYNTH[filename]
    out = tmp_path / "candidates.csv"
    assert cli.main(["coil", "synth", "--target-l", target, "--max-area", cap,
                     "--shape", "square", "--f0", "20e6", "--top", "100000",
                     "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / filename).read_bytes()
