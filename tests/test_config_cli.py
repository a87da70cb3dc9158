import json
import types

import numpy as np
import pytest

import fractal_spectra
from fractal_spectra import cli, grassmann
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


def test_renorm_from_config_network(capsys):
    # without --coords the orbit starts at the config network, a real
    # matrix, so the orbit stays on the Siegel domain's boundary
    assert cli.main(["renorm", "--config", "sierpinski", "--steps", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert complex(rows[0].split(",")[3].split(";")[1]) == pytest.approx(1.8)
    assert [r.split(",")[2] for r in rows] == ["0", "0"]


def test_renorm_frame_entries(capsys):
    assert cli.main(["renorm", "--config", "sierpinski", "--steps", "2", "--frame"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [len(r.split(",")[3].split(";")) for r in rows] == [2 * 3 * 3] * 2


def test_renorm_at_infinity_row(capsys):
    assert cli.main(["renorm", "--config", "sierpinski", "--steps", "2", "--coords", "1,-2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert rows[0] == "1,0,0,AtInfinity"
    assert rows[1].split(",")[3] != "AtInfinity"


def _without_chart(tmp_path):
    raw = json.loads(dump_config(load_config("sierpinski")))
    del raw["chart"]
    path = tmp_path / "nochart.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_renorm_without_chart(tmp_path, capsys):
    path = _without_chart(tmp_path)
    assert cli.main(["renorm", "--config", path, "--steps", "1", "--coords", "0,3"]) == 2
    assert "needs a chart" in capsys.readouterr().err
    # without a chart the rows carry the K x K matrix entries
    assert cli.main(["renorm", "--config", path, "--steps", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows[0].split(",")[3].split(";")) == 9


def test_dos_bad_green_grid(capsys):
    assert cli.main(["dos", "--config", "sierpinski", "--level", "1", "--bins", "4",
                     "--green=bad"]) == 2
    out = capsys.readouterr()
    assert "lo:hi:count" in out.err
    assert out.out == ""


def test_dos_green_zero_eps(capsys):
    assert cli.main(["dos", "--config", "interval", "--level", "0", "--bins", "2",
                     "--green=-2:0:2", "--eps", "0"]) == 2
    out = capsys.readouterr()
    assert "eps must be positive" in out.err
    assert out.out == ""


@pytest.mark.parametrize("flags,message", [
    (["--bins", "0"], "need at least one bin"),
    (["--bins", "4", "--green=bad"], "lo:hi:count"),
    (["--bins", "4", "--green=-2:0:2", "--eps", "0"], "eps must be positive"),
    (["--bins", "4", "--green=-1:0:2", "--eps", "inf"], "eps must be positive and finite"),
    (["--bins", "4", "--green=nan:0:3"], "grid points must be finite"),
], ids=["bins", "grid", "eps", "eps-inf", "grid-nan"])
def test_dos_checks_input_before_the_spectrum(flags, message, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built level n before checking the input")

    monkeypatch.setattr(cli, "level_spectrum", refuse)
    monkeypatch.setattr(cli, "assemble_network", refuse)
    assert cli.main(["dos", "--config", "sierpinski", "--level", "7", *flags]) == 2
    out = capsys.readouterr()
    assert message in out.err
    assert out.out == ""


def test_error_labels(tmp_path, capsys):
    # A config that cannot be read is a config error; a bad number on the
    # command line is an input error.  Both exit 2.
    missing = str(tmp_path / "missing.json")
    assert cli.main(["spectrum", "--config", missing, "--level", "1"]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read config")
    assert cli.main(["dos", "--config", "sierpinski", "--level", "3", "--bins", "4",
                     "--green=-1:0:2", "--eps", "inf"]) == 2
    assert capsys.readouterr().err.startswith("input error: eps must be positive and finite")


def _sierpinski_raw(change):
    raw = json.loads(dump_config(load_config("sierpinski")))
    change(raw)
    return json.dumps(raw)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def change(raw):
        for p in path:
            raw = raw[p]
        raw[key] = value

    return change


# One malformed config per ConfigError raise site of fractal_spectra.config:
# (id, config text, expected message)
MALFORMED = [
    ("wrong-type", _sierpinski_raw(_set("K", "3")), "sierpinski: field 'K' has the wrong type"),
    ("bad-point", _sierpinski_raw(_set("boundary", 0, [1])),
     r"sierpinski: boundary: expected a \[copy, vertex\] pair"),
    ("empty-class", _sierpinski_raw(lambda raw: raw["glue"].append([])),
     "sierpinski: glue class 3 is empty"),
    ("point-twice", _sierpinski_raw(lambda raw: raw["glue"].append(raw["glue"][0])),
     "sierpinski: glue class 3: point listed twice"),
    ("boundary-size", _sierpinski_raw(lambda raw: raw["boundary"].pop()),
     "sierpinski: boundary must list exactly K = 3 points"),
    ("weak-edge", _sierpinski_raw(_set("weak", {"edges": [[[1, 2], [2, 1]]]})),
     "sierpinski: weak edge 0: expected"),
    ("weak-dissipative", _sierpinski_raw(_set("weak", {"dissipative": [[[1, 2]]]})),
     "sierpinski: weak dissipative 0: expected"),
    ("weak-network", _sierpinski_raw(_set("weak", {"edges": [[[1, 2], [1, 2], 1.0]]})),
     r"sierpinski: weak network: bad edge \(1, 1\)"),
    ("network-edge", _sierpinski_raw(_set("network", "edges", [[1, 2]])),
     r"sierpinski: network edge 0: expected \[i, j, rho\]"),
    ("network-pair", _sierpinski_raw(_set("network", "edges", [[1, 1, 1.0]])),
     "sierpinski: network edge 0: bad vertex pair"),
    ("network-dissipative", _sierpinski_raw(_set("network", "dissipative", [0.0])),
     "sierpinski: network dissipative must have K entries"),
    ("network", _sierpinski_raw(_set("network", "edges", [[1, 2, -1.0]])),
     "sierpinski: network: conductances and dissipative terms must be >= 0"),
    ("measure", _sierpinski_raw(_set("measure", [1.0, 0.0, 1.0])),
     "sierpinski: measure must be K strictly positive entries"),
    ("chart", _sierpinski_raw(_set("chart", [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])),
     "sierpinski: chart: projectors do not sum to the identity"),
    ("json", '{"K": 3,\n "N": }', "bad.json: line 2: Expecting value"),
    ("top-level", "[]", "bad.json: top level must be an object"),
]


@pytest.mark.parametrize("text, message", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_malformed_config(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(str(path))


def test_malformed_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text({name: text for name, text, _ in MALFORMED}["measure"])
    assert cli.main(["spectrum", "--config", str(path), "--level", "1"]) == 2
    assert "measure must be K strictly positive" in capsys.readouterr().err


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


def test_verify_reports_a_crash_as_a_fail_line(monkeypatch, capsys):
    # A check that dies of an untyped error (the lift's table too large to
    # allocate) is a FAIL line naming the error; the other checks still run
    # and the run exits 1, with the crash's traceback on stderr.
    def too_large(structure):
        raise MemoryError("Unable to allocate 12.5 GiB")

    monkeypatch.setattr(grassmann, "_lift_plan", too_large)
    assert cli.main(["verify", "--config", "sierpinski", "--suite", "identities"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed and all("MemoryError: Unable to allocate 12.5 GiB" in line for line in failed)
    assert any(line.startswith("PASS") for line in lines)
    assert "Traceback" in err and "too_large" in err


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
