"""CSV and JSON round-trips plus the command-line entry points."""

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from scbands import (
    ExperimentConfig,
    FunctionalSample,
    Grid1D,
    Grid2D,
    ScaleGrid,
    add_observation_noise,
    band_to_dict,
    format_report_table,
    gaussian_kernel,
    gen_model,
    read_sample,
    scb_one_sample,
    scb_scale_space,
    scb_two_sample,
    smooth_sample,
    substream,
    write_band,
    write_report_csv,
    write_report_json,
    write_sample,
)
from scbands.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_curve_sample_round_trip_is_exact(tmp_path):
    g = Grid1D(np.linspace(0.0, 1.0, 17))
    s = FunctionalSample(substream(70, 0).standard_normal((5, 17)), g)
    path = tmp_path / "curves.csv"
    write_sample(path, s)
    back = read_sample(path)
    assert_array_equal(back.values, s.values)
    assert_array_equal(back.grid.points, g.points)


def test_surface_sample_round_trip_is_exact(tmp_path):
    g = Grid2D(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 2.0, 5))
    s = FunctionalSample(substream(70, 1).standard_normal((3, 20)), g)
    path = tmp_path / "surfaces.csv"
    write_sample(path, s)
    back = read_sample(path)
    assert isinstance(back.grid, Grid2D)
    assert_array_equal(back.values, s.values)
    assert_array_equal(back.grid.x_points, g.x_points)
    assert_array_equal(back.grid.y_points, g.y_points)


def test_read_errors_name_the_offending_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0.0,0.5,1.0\n1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="row 3 has 2 values, expected 3"):
        read_sample(p)
    p.write_text("0.0,0.5,1.0\n1,2,3\n3,oops,5\n")
    with pytest.raises(ValueError, match="row 3 holds a non-numeric value"):
        read_sample(p)
    p.write_text("0.0,0.5,1.0\ninf,2,3\n")
    with pytest.raises(ValueError, match="row 2 holds a non-finite value"):
        read_sample(p)


def test_read_rejects_degenerate_files(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_sample(p)
    p.write_text("0.0,0.5,1.0\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_sample(p)
    p.write_text("0:0,0:1,1:0\n1,2,3\n")
    with pytest.raises(ValueError, match="rectangular lattice"):
        read_sample(p)
    p.write_text("\n1,2,3\n")
    with pytest.raises(ValueError, match="^sample CSV has an empty header$"):
        read_sample(p)
    p.write_text("0:0,0:1:2,1:0\n1,2,3\n")
    with pytest.raises(ValueError, match="^malformed surface header cell '0:1:2'$"):
        read_sample(p)
    # header cells that are not numbers are named, on curves as on surfaces
    p.write_text("0,a,1\n1,2,3\n")
    with pytest.raises(ValueError, match="^malformed curve header cell 'a'$"):
        read_sample(p)
    p.write_text("0:0,0:b,1:0\n1,2,3\n")
    with pytest.raises(ValueError, match="^malformed surface header cell '0:b'$"):
        read_sample(p)
    # a full lattice written column-major is not write_sample's order
    cells = [f"{x}:{y}" for y in range(3) for x in range(3)]
    p.write_text(",".join(cells) + "\n" + ",".join("1" * 9) + "\n")
    with pytest.raises(ValueError, match="rectangular lattice"):
        read_sample(p)
    # bad rows are named by their line in the file, blank lines counted
    p.write_text("0,0.5,1\n\n1,2,3\n\n4,inf,6\n")
    with pytest.raises(ValueError, match="^row 5 holds a non-finite value$"):
        read_sample(p)
    p.write_text("0,0.5,1\n\n1,2,3\n\n4,x,6\n")
    with pytest.raises(ValueError, match="^row 5 holds a non-numeric value$"):
        read_sample(p)


def test_read_skips_blank_lines(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("0.0,0.5,1.0\n\n1,2,3\n\n\n4,5,7\n\n")
    s = read_sample(p)
    assert_array_equal(s.values, [[1.0, 2.0, 3.0], [4.0, 5.0, 7.0]])
    assert_array_equal(s.grid.points, [0.0, 0.5, 1.0])


def test_band_json_file(tmp_path):
    g = Grid1D(np.linspace(0.0, 1.0, 20))
    s = FunctionalSample(substream(71, 0).standard_normal((10, 20)), g)
    band = scb_one_sample(s, method="tgkf", alpha=0.1)
    path = tmp_path / "band.json"
    write_band(path, band)
    doc = json.loads(path.read_text())
    assert doc["method"] == "tgkf"
    assert doc["alpha"] == 0.1
    assert len(doc["center"]) == 20
    assert doc["grid"]["points"][0] == 0.0


def test_report_files_and_table(tmp_path):
    report = {
        "kind": "coverage",
        "config": {"alpha": 0.05},
        "cells": [
            {
                "n": 50,
                "method": "tgkf",
                "replications": 200,
                "failures": 0,
                "hits": 190,
                "coverage": 0.95,
                "se": 0.0154,
            },
            {
                "n": 50,
                "method": "rmult-t",
                "replications": 200,
                "failures": 200,
                "hits": 0,
                "coverage": None,
                "se": None,
            },
        ],
    }
    jpath = tmp_path / "report.json"
    write_report_json(jpath, report)
    assert json.loads(jpath.read_text())["cells"][0]["coverage"] == 0.95
    cpath = tmp_path / "report.csv"
    write_report_csv(cpath, report)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "n,method,replications,failures,hits,coverage,se"
    assert lines[1].startswith("50,tgkf,200,0,190,")
    # a failed cell serializes with empty numeric fields
    assert lines[2] == "50,rmult-t,200,200,0,,"
    table = format_report_table(report)
    assert "tgkf" in table and "0.9500" in table
    assert "-" in table.splitlines()[-1]


@pytest.mark.parametrize("report", [{"kind": "x", "cells": []}, {"cells": []}])
def test_report_writers_reject_an_unknown_kind(tmp_path, report):
    with pytest.raises(ValueError, match="unknown report kind"):
        format_report_table(report)
    with pytest.raises(ValueError, match="unknown report kind"):
        write_report_csv(tmp_path / "report.csv", report)
    assert not (tmp_path / "report.csv").exists()


def _write_config(path, **overrides):
    doc = {
        "model": {"name": "A", "resolution": 40},
        "n_values": [12],
        "methods": ["tgkf"],
        "alpha": 0.1,
        "replications": 4,
        "true_replications": 50,
        "seed": 3,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_cli_generate_then_band(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    sample_path = tmp_path / "sample.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(sample_path)]) == 0
    s = read_sample(sample_path)
    assert s.values.shape == (12, 40)

    band_path = tmp_path / "band.json"
    cfg2 = _write_config(tmp_path / "cfg2.json", input=str(sample_path))
    assert main(["scb", "--config", str(cfg2), "--out", str(band_path)]) == 0
    doc = json.loads(band_path.read_text())
    assert doc["method"] == "tgkf"
    assert len(doc["center"]) == 40
    capsys.readouterr()


def test_cli_generate_writes_the_raw_sweep_draw(tmp_path, capsys):
    # generate draws the sweep's first-replication streams (data tag 0,
    # noise tag 2) and writes the sample before any smoothing.
    cfg_path = _write_config(
        tmp_path / "cfg.json", sigma_obs=0.3, scale_grid=[0.02, 0.1, 3],
        model={"name": "B", "resolution": 30, "midpoint_grid": True},
    )
    out = tmp_path / "raw.csv"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
    expected = add_observation_noise(
        gen_model(cfg.model, 12, substream(3, 0, 0, 0)), 0.3, substream(3, 2, 0, 0)
    )
    got = read_sample(out)
    assert_array_equal(got.grid.points, expected.grid.points)
    assert_array_equal(got.values, expected.values)


def test_cli_generate_seed_changes_data(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(b), "--seed", "99"]) == 0
    assert not np.array_equal(read_sample(a).values, read_sample(b).values)


def test_cli_two_group_band(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    ya = tmp_path / "y.csv"
    xa = tmp_path / "x.csv"
    main(["generate", "--config", str(cfg), "--out", str(ya)])
    main(["generate", "--config", str(cfg), "--out", str(xa), "--seed", "8"])
    cfg2 = _write_config(
        tmp_path / "cfg2.json", input=str(ya), input_x=str(xa), two_sample=True
    )
    out = tmp_path / "diff.json"
    assert main(["scb", "--config", str(cfg2), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["center"]) == 40


def test_cli_scale_space_band(tmp_path, capsys):
    # with scale_grid, scb bands the input smoothed onto its (s, h) lattice
    raw = FunctionalSample(
        substream(72, 0).standard_normal((15, 50)), Grid1D((np.arange(50) + 0.5) / 50.0)
    )
    raw_path = tmp_path / "raw.csv"
    write_sample(raw_path, raw)
    cfg = _write_config(
        tmp_path / "cfg.json", input=str(raw_path), scale_grid=[0.05, 0.2, 4],
        methods=["gmult-t"], bootstrap_replicates=200,
    )
    out = tmp_path / "scale_band.json"
    assert main(["scb", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    sg = ScaleGrid(raw.grid, np.linspace(0.05, 0.2, 4))
    band = scb_scale_space(raw, gaussian_kernel(), sg, "gmult-t", 0.1, replicates=200, seed=3)
    doc = json.loads(out.read_text())
    assert doc == band_to_dict(band)
    assert len(doc["center"]) == 50 * 4


@pytest.mark.parametrize(
    "scale_grid", [[0.05, 0.2, 4], [0.07, 0.07, 1]], ids=["lattice", "one-bandwidth"]
)
def test_cli_two_sample_scale_space_band(tmp_path, capsys, scale_grid):
    # with input_x as well, scb smooths each group, then bands the difference
    grid = Grid1D((np.arange(50) + 0.5) / 50.0)
    y = FunctionalSample(substream(72, 3).standard_normal((15, 50)), grid)
    x = FunctionalSample(substream(72, 4).standard_normal((12, 50)) + 0.2, grid)
    y_path, x_path = tmp_path / "y.csv", tmp_path / "x.csv"
    write_sample(y_path, y)
    write_sample(x_path, x)
    cfg = _write_config(
        tmp_path / "cfg.json", input=str(y_path), input_x=str(x_path), scale_grid=scale_grid,
        methods=["rmult-t"], bootstrap_replicates=200,
    )
    out = tmp_path / "diff_band.json"
    assert main(["scb", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    sg, k = ScaleGrid(grid, np.linspace(*scale_grid)), gaussian_kernel()
    band = scb_two_sample(
        smooth_sample(y, k, sg), smooth_sample(x, k, sg), "rmult-t", 0.1, replicates=200, seed=3
    )
    assert json.loads(out.read_text()) == band_to_dict(band)


def test_cli_scale_grid_rejects_surfaces(tmp_path, capsys):
    surfaces = FunctionalSample(
        substream(72, 5).standard_normal((10, 20)),
        Grid2D(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 5)),
    )
    path = tmp_path / "surfaces.csv"
    write_sample(path, surfaces)
    cfg = _write_config(tmp_path / "cfg.json", input=str(path), scale_grid=[0.05, 0.2, 4])
    out = tmp_path / "band.json"
    assert main(["scb", "--config", str(cfg), "--out", str(out)]) == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "ValueError"
    assert "surfaces" in doc["message"]
    assert not out.exists()


def test_cli_has_no_scale_scb_command(capsys):
    # scb with scale_grid makes the scale-space band
    with pytest.raises(SystemExit) as exc:
        main(["scale-scb", "--config", "cfg.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'scale-scb'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("presmooth_bandwidth", 0.05), ("presmooth_points", 80)])
def test_cli_rejects_presmooth_keys(tmp_path, capsys, key, value):
    # one bandwidth h is the scale_grid [h, h, 1]
    cfg = _write_config(tmp_path / "cfg.json", input=str(tmp_path / "y.csv"), **{key: value})
    assert main(["scb", "--config", str(cfg)]) == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "ValueError"
    assert "unknown config keys" in doc["message"] and key in doc["message"]


_SCALE_GRIDS = pytest.mark.parametrize(
    "scale_grid", [None, [0.05, 0.2, 4]], ids=["scb", "scb-scale-grid"]
)


@_SCALE_GRIDS
def test_cli_band_commands_reject_more_than_one_method(tmp_path, capsys, scale_grid):
    cfg = _write_config(
        tmp_path / "cfg.json", input=str(tmp_path / "sample.csv"),
        methods=["tgkf", "rmult-t"], scale_grid=scale_grid,
    )
    out = tmp_path / "band.json"
    assert main(["scb", "--config", str(cfg), "--out", str(out)]) == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "ValueError"
    assert "rmult-t" in doc["message"]
    assert not out.exists()


@_SCALE_GRIDS
def test_cli_two_sample_config_without_second_group_is_rejected(tmp_path, capsys, scale_grid):
    # scb would otherwise write a one-sample band of Y
    raw = FunctionalSample(substream(72, 2).standard_normal((15, 50)), Grid1D(np.arange(50) / 49))
    y = tmp_path / "y.csv"
    write_sample(y, raw)
    cfg = _write_config(tmp_path / "cfg.json", input=str(y), two_sample=True,
                        scale_grid=scale_grid)
    out = tmp_path / "band.json"
    assert main(["scb", "--config", str(cfg), "--out", str(out)]) == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "ValueError"
    assert "two_sample" in doc["message"]
    assert not out.exists()


def test_cli_coverage_writes_tables(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "cov.csv"
    assert main(["coverage", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,method")
    assert len(lines) == 2
    doc = json.loads((tmp_path / "cov.json").read_text())
    assert doc["kind"] == "coverage"
    assert doc["cells"][0]["replications"] == 4
    shown = capsys.readouterr().out
    assert "coverage" in shown and "tgkf" in shown


def test_cli_width_includes_reference_row(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "width.csv"
    assert main(["width", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "width.json").read_text())
    methods = {c["method"] for c in doc["cells"]}
    assert "true" in methods and "tgkf" in methods
    capsys.readouterr()


def test_cli_threads_do_not_change_results(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", replications=6)
    a = tmp_path / "one.csv"
    b = tmp_path / "two.csv"
    assert main(["coverage", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["coverage", "--config", str(cfg), "--out", str(b), "--threads", "3"]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("command", ["generate", "scb"])
def test_cli_threads_only_on_sweeps(tmp_path, capsys, command):
    cfg = _write_config(tmp_path / "cfg.json")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_cli_errors_are_json_on_stderr(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", input=str(tmp_path / "missing.csv"))
    code = main(["scb", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    doc = json.loads(err.strip().splitlines()[-1])
    assert doc["error"]
    assert "missing.csv" in doc["message"]


def _cli_error(capsys, argv):
    """The JSON error line main(argv) prints, after checking its exit status 1."""
    assert main(argv) == 1
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_cli_scb_needs_an_input(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    doc = _cli_error(capsys, ["scb", "--config", str(cfg)])
    message = 'scb needs an "input" sample CSV in the config'
    assert doc == {"error": "ValueError", "message": message}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"two_sample": "false"}, "two_sample must be true or false, got 'false'"),
        ({"model": {"name": "B", "midpoint_grid": "false"}},
         "midpoint_grid must be true or false, got 'false'"),
        ({"n_values": 50}, "n_values must be a list, got 50"),
        ({"methods": "tgkf"}, "methods must be a list, got 'tgkf'"),
        ({"model": None}, "model must be an object of model keys, got None"),
        ({"seed": 2.7}, "seed must be an integer, got 2.7"),
        # an integer was opened as a file descriptor: 1 wrote to stdout and closed it
        ({"out": 1}, "out must be a path, got 1"),
    ],
)
def test_cli_names_malformed_config_values(tmp_path, capsys, overrides, message):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    for command in ("generate", "coverage"):
        doc = _cli_error(capsys, [command, "--config", str(cfg)])
        assert doc == {"error": "ValueError", "message": message}


def test_cli_threads_must_be_positive(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    for threads in ("0", "-1"):
        doc = _cli_error(capsys, ["width", "--config", str(cfg), "--threads", threads])
        message = f"threads must be positive, got {threads}"
        assert doc == {"error": "ValueError", "message": message}


def test_cli_scb_rejects_malformed_scale_grid(tmp_path, capsys):
    grid = [0.02, 0.1]
    cfg = _write_config(tmp_path / "cfg.json", input=str(tmp_path / "y.csv"), scale_grid=grid)
    out = tmp_path / "band.json"
    assert main(["scb", "--config", str(cfg), "--out", str(out)]) == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    message = "scale_grid must be 3 numbers, got [0.02, 0.1]"
    assert doc == {"error": "ValueError", "message": message}
    assert not out.exists()


@pytest.mark.parametrize("document", [[1, 2], "abc", None, 3])
def test_cli_rejects_a_config_that_is_not_an_object(tmp_path, capsys, document):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(document))
    for argv in (["coverage"], ["scb", "--seed", "3", "--out", str(tmp_path / "b.json")]):
        doc = _cli_error(capsys, [*argv, "--config", str(p)])
        message = f"config must be a JSON object, got {document!r}"
        assert doc == {"error": "ValueError", "message": message}


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_values": [5], "bogus": 1}))
    assert main(["coverage", "--config", str(p)]) == 1
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "bogus" in doc["message"]


def test_readme_command_line_matches_the_parser_and_the_config():
    section = README.read_text().split("## Command line", 1)[1]
    commands = section.split("```sh\n", 1)[1].split("```", 1)[0]
    config = section.split("```jsonc\n", 1)[1].split("```", 1)[0]
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert [line.split()[1] for line in commands.splitlines()] == list(sub.choices)
    keys = ExperimentConfig().to_dict()
    assert set(re.findall(r'^  "(\w+)":', config, re.M)) == set(keys) | {"input", "input_x"}
    assert set(re.findall(r'^    "(\w+)":', config, re.M)) == set(keys["model"])
