import json
import types

import numpy as np
import pytest

import fractal_spectra
from fractal_spectra import cli
from fractal_spectra.config import (
    BUILTIN_NAMES,
    dump_config,
    load_config,
    parse_config,
)
from fractal_spectra.errors import ConfigError, OrderUnstable


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_roundtrip(name):
    cfg = load_config(name)
    text = dump_config(cfg)
    again = parse_config(json.loads(text), name)
    assert dump_config(again) == text
    assert again.structure.glue_classes == cfg.structure.glue_classes
    assert again.structure.boundary_map == cfg.structure.boundary_map


def test_parse_reports_context():
    raw = json.loads(dump_config(load_config("sierpinski")))
    raw["glue"][0][0] = [9, 1]
    with pytest.raises(ConfigError, match="glue class 0"):
        parse_config(raw)
    raw2 = json.loads(dump_config(load_config("sierpinski")))
    del raw2["measure"]
    with pytest.raises(ConfigError, match="measure"):
        parse_config(raw2)
    raw3 = json.loads(dump_config(load_config("sierpinski")))
    raw3["boundary"][1] = [1, 1]
    with pytest.raises(ConfigError, match="injective"):
        parse_config(raw3)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")


def test_weighted_weak_config_roundtrip(tmp_path):
    raw = json.loads(dump_config(load_config("gamma_bar")))
    raw["weights"] = {"w": [1.0, 0.5, 2.0], "b": [0.5, 0.25, 1.0]}
    path = tmp_path / "weighted.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(str(path))
    assert cfg.structure.weights_w == (1.0, 0.5, 2.0)
    assert cfg.structure.hypothesis_h()[0]
    text = dump_config(cfg)
    again = parse_config(json.loads(text))
    assert again.structure.weights_w == cfg.structure.weights_w
    assert again.structure.weak.conductances == cfg.structure.weak.conductances
    # the weighted config drives the CLI end to end
    assert cli.main(["spectrum", "--config", str(path), "--level", "1"]) == 0


def test_spectrum_command(capsys):
    assert cli.main(["spectrum", "--config", "sierpinski", "--level", "1", "--bc", "neumann"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "eigenvalue,multiplicity"
    assert sum(int(line.split(",")[1]) for line in out[1:]) == 6


def test_spectrum_level0_dirichlet_empty(capsys):
    assert cli.main(["spectrum", "--config", "sierpinski", "--level", "0", "--bc", "dirichlet"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["eigenvalue,multiplicity"]


def test_spectrum_nd_matches_library(capsys, gbar, triangle):
    from fractal_spectra.spectra import level_spectrum

    assert cli.main(["spectrum", "--config", "gamma_bar", "--level", "1", "--bc", "nd"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[1:]
    rep = level_spectrum(gbar, triangle, np.ones(3), 1, "nd")
    assert len(out) == len(rep.clusters)
    for line, (value, mult) in zip(out, rep.clusters):
        v, m = line.split(",")
        assert float(v) == pytest.approx(value)
        assert int(m) == mult


def test_spectrum_laplacian_flag(capsys):
    cli.main(["spectrum", "--config", "sierpinski", "--level", "0", "--laplacian"])
    out = capsys.readouterr().out.strip().splitlines()[1:]
    values = [float(line.split(",")[0]) for line in out]
    assert values == sorted(values)
    assert min(values) >= -1e-12


def test_dos_total_mass_and_determinism(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    for p in (p1, p2):
        assert cli.main([
            "dos", "--config", "sierpinski", "--level", "3", "--bins", "12",
            "--csv", str(p),
        ]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    rows = p1.read_text().strip().splitlines()[1:]
    total = sum(float(r.split(",")[2]) for r in rows)
    assert total == pytest.approx(42 / 27.0)


def test_dos_green_grid(tmp_path, capsys):
    out = tmp_path / "dos.csv"
    green = tmp_path / "green.csv"
    assert cli.main([
        "dos", "--config", "sierpinski", "--level", "2", "--bins", "4",
        "--csv", str(out), "--green=-4:1:7", "--green-csv", str(green),
    ]) == 0
    rows = green.read_text().strip().splitlines()[1:]
    assert len(rows) == 7
    assert all(np.isfinite(float(r.split(",")[1])) for r in rows)


def test_renorm_command_trajectory(capsys):
    assert cli.main(["renorm", "--config", "sierpinski", "--steps", "2", "--coords", "0,3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    u1 = [complex(r.split(",")[3].split(";")[1]) for r in rows]
    assert u1[0] == pytest.approx(1.8)
    assert u1[1] == pytest.approx(1.08)


def test_renorm_constant_diagonal(capsys):
    assert cli.main(["renorm", "--config", "gamma_bar_semi", "--steps", "1", "--coords", "0.9,0.9"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    vals = [complex(v) for v in rows[0].split(",")[3].split(";")]
    assert vals[0] == pytest.approx(0.9)
    assert vals[1] == pytest.approx(0.9)


def test_renorm_siegel_flagged(capsys):
    assert cli.main(["renorm", "--config", "sierpinski", "--steps", "3", "--coords", "1j,1j"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert all(r.split(",")[2] == "1" for r in rows)


def test_verify_cli_passes(capsys):
    assert cli.main(["verify", "--config", "sierpinski", "--suite", "identities"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_negative_control(tmp_path, capsys):
    # shuffling the gasket glue pairs into an asymmetric pattern produces a
    # valid but different structure: the degree suite must fail for it
    raw = json.loads(dump_config(load_config("sierpinski")))
    raw["glue"] = [[[1, 2], [2, 1]], [[1, 3], [2, 3]], [[3, 1], [3, 2]]]
    bad = tmp_path / "shuffled.json"
    bad.write_text(json.dumps(raw))
    assert cli.main(["verify", "--config", str(bad), "--suite", "degrees"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_exit_code_config_error(capsys):
    assert cli.main(["spectrum", "--config", "/no/such.json", "--level", "1"]) == 2


def test_exit_code_numeric_failure(monkeypatch, capsys):
    def boom(_):
        raise OrderUnstable("synthetic")

    monkeypatch.setattr(cli, "load_config", boom)
    assert cli.main(["spectrum", "--config", "sierpinski", "--level", "1"]) == 3


def test_public_names_exclude_submodules():
    exported = [getattr(fractal_spectra, name) for name in fractal_spectra.__all__]
    assert not [obj for obj in exported if isinstance(obj, types.ModuleType)]
