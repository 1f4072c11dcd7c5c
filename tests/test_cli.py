import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from geomeans import checks, cli, spaces
from geomeans.cli import (
    MEANS_MAGIC,
    ConfigError,
    main,
    parse_config,
    read_means,
    read_report,
    write_means,
    write_pgm,
)
from geomeans.forward import MeanData, default_tgrid, forward_means
from geomeans.phantoms import Bump, Phantom
from geomeans.spaces import EUCLIDEAN, SpaceSpec, boundary_grid

BASE = {
    "space": {"kind": "euclidean", "n": 2, "radius": 1.0},
    "phantom": [{"center": [0.25, 0.1], "geodesic_radius": 0.3, "amplitude": 1.0}],
    "grids": {
        "boundary_points": 64,
        "t_points": 400,
        "quadrature_order": 16,
        "fd_step": 0.01,
        "recon_grid": {"center": [0.25, 0.1], "half_width": 0.4,
                       "points_per_axis": 7, "ball_radius": 0.4},
    },
    "method": "direct",
    "seed": 7,
}


def cfg_with(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return raw


def test_parse_valid_config():
    cfg = parse_config(cfg_with())
    assert cfg["space"].kind == EUCLIDEAN
    assert cfg["phantom"].bumps[0].amplitude == 1.0


def test_schema_errors_carry_field_paths():
    bad = cfg_with()
    del bad["space"]["radius"]
    with pytest.raises(ConfigError, match="config.space.radius"):
        parse_config(bad)
    bad = cfg_with()
    bad["phantom"][0]["center"] = [0.25]
    with pytest.raises(ConfigError, match=r"config.phantom\[0\].center"):
        parse_config(bad)
    bad["phantom"][0]["center"] = [0.25, "0.1"]
    with pytest.raises(ConfigError, match=r"^config.phantom\[0\].center\[1\] must be a number$"):
        parse_config(bad)
    bad = cfg_with(method="sideways")
    with pytest.raises(ConfigError, match="config.method"):
        parse_config(bad)
    bad = cfg_with()
    bad["grids"]["fd_step"] = -1.0
    with pytest.raises(ConfigError, match="fd_step"):
        parse_config(bad)


def test_fd_step_defaults_to_a_hundredth_of_the_space_radius():
    # the bump loop binds its own radii (0.22 here); the default reads the
    # space's (0.8)
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs/sphere2.json").read_text())
    del raw["grids"]["fd_step"]
    assert parse_config(raw)["grids"]["fd_step"] == 1e-2 * 0.8


@pytest.mark.parametrize("field", ["boundary_points", "t_points"])
@pytest.mark.parametrize("value", [128.9, 128.0, "128", True])
def test_grid_sizes_must_be_integers(field, value):
    bad = cfg_with()
    bad["grids"][field] = value
    with pytest.raises(ConfigError, match=f"config.grids.{field} must be an integer"):
        parse_config(bad)


@pytest.mark.parametrize("field,value,least", [
    ("t_points", 0, 64),
    ("t_points", 63, 64),
    ("quadrature_order", 0, 2),
    ("quadrature_order", -3, 2),
    ("boundary_points", 3, 4),
])
def test_grid_sizes_below_the_least_are_rejected_by_name(field, value, least):
    bad = cfg_with()
    bad["grids"][field] = value
    with pytest.raises(ConfigError, match=f"^config.grids.{field} must be >= {least}, not {value}$"):
        parse_config(bad)


def test_default_tgrid_takes_an_explicit_size_of_zero_at_its_word():
    space = SpaceSpec(EUCLIDEAN, 2, 1.0)
    assert default_tgrid(space).n == 800
    with pytest.raises(ValueError, match="shorter than 64 nodes"):
        default_tgrid(space, 0)


@pytest.mark.parametrize("update", [
    # the one node of each axis is the box corner, outside the ball
    {"points_per_axis": 1},
    # no node of the even grid lies within the ball around its centre
    {"points_per_axis": 4, "ball_radius": 1e-3},
])
def test_recon_grid_without_points_is_rejected_by_name(update):
    bad = cfg_with()
    bad["grids"]["recon_grid"].update(update)
    with pytest.raises(ConfigError, match="^config.grids.recon_grid selects no point"):
        parse_config(bad)


@pytest.mark.parametrize("field,value,message", [
    ("half_width", None, "missing field config.grids.recon_grid.half_width"),
    ("half_width", -0.4, "config.grids.recon_grid.half_width must be positive"),
    ("half_width", "0.4", "config.grids.recon_grid.half_width must be a number"),
    ("points_per_axis", None, "missing field config.grids.recon_grid.points_per_axis"),
    ("points_per_axis", 7.9, "config.grids.recon_grid.points_per_axis must be an integer"),
    ("points_per_axis", "7", "config.grids.recon_grid.points_per_axis must be an integer"),
    ("points_per_axis", 0, "config.grids.recon_grid.points_per_axis must be positive"),
    ("ball_radius", 0.0, "config.grids.recon_grid.ball_radius must be positive"),
    ("ball_radius", "0.4", "config.grids.recon_grid.ball_radius must be a number"),
])
def test_recon_grid_fields_checked(field, value, message):
    bad = cfg_with()
    if value is None:
        del bad["grids"]["recon_grid"][field]
    else:
        bad["grids"]["recon_grid"][field] = value
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config(bad)


def test_recon_grid_ball_radius_optional():
    raw = cfg_with()
    del raw["grids"]["recon_grid"]["ball_radius"]
    assert parse_config(raw)["grids"]["recon_grid"]["ball_radius"] is None


def test_default_recon_grid_is_a_ball_around_the_first_bump():
    # without recon_grid the points are the 9-point box around the first
    # bump of half width its radius + R/10 (0.4 here), clipped to that ball
    raw = cfg_with()
    del raw["grids"]["recon_grid"]
    default = cli._recon_points(parse_config(raw))
    raw["grids"]["recon_grid"] = {"center": [0.25, 0.1], "half_width": 0.4,
                                  "points_per_axis": 9, "ball_radius": 0.4}
    assert default.shape[0] > 0
    assert np.array_equal(default, cli._recon_points(parse_config(raw)))


@pytest.mark.parametrize("where,key", [
    ((), "methd"),
    (("space",), "raduis"),
    (("phantom", 0), "centre"),
    (("grids",), "quadrature_ordr"),
    (("grids", "recon_grid"), "centre"),
])
def test_unknown_fields_rejected(where, key):
    bad = cfg_with()
    obj = bad
    for step in where:
        obj = obj[step]
    obj[key] = 1
    path = "config" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where)
    with pytest.raises(ConfigError, match=f"^unknown field {re.escape(path)}.{key}$"):
        parse_config(bad)


def test_config_errors_exit_cleanly(tmp_path, capsys):
    raw = cfg_with()
    del raw["grids"]["recon_grid"]["half_width"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["roundtrip", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == (
        "error: missing field config.grids.recon_grid.half_width\n")


@pytest.mark.parametrize("case", ["config", "means", "report", "out"])
def test_missing_files_exit_cleanly(tmp_path, capsys, case):
    # a file that is not there, or an output in a directory that is not
    # there, is one error line that names the path, not a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_with()))
    missing = str(tmp_path / "nosuch" / f"{case}.csv")
    argv = {
        "config": ["roundtrip", "--config", missing, "--out", str(tmp_path / "r.csv")],
        "means": ["invert", "--config", str(cfg_path), "--means", missing,
                  "--out", str(tmp_path / "r.csv")],
        "report": ["render", "--report", missing, "--out", str(tmp_path / "img.pgm")],
        "out": ["forward", "--config", str(cfg_path), "--out", missing],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and missing in err


def test_sections_profile_rejected_for_traces():
    # the trace generators build their means with the exact profile
    assert parse_config(cfg_with(forward_profile="sections"))["forward_profile"] == "sections"
    assert parse_config(cfg_with(alpha=1.0))["alpha"] == 1.0
    with pytest.raises(ConfigError, match="config.forward_profile"):
        parse_config(cfg_with(forward_profile="sections", alpha=1.0))


def test_phantom_margin_enforced():
    bad = cfg_with()
    bad["phantom"][0]["center"] = [0.75, 0.0]
    with pytest.raises(ConfigError, match="config.phantom"):
        parse_config(bad)


@pytest.mark.parametrize("where,value", [
    (("space", "radius"), float("nan")),
    (("space", "radius"), 10 ** 400),
    (("phantom", 0, "center", 1), float("nan")),
    (("phantom", 0, "geodesic_radius"), float("nan")),
    (("phantom", 0, "amplitude"), float("inf")),
    (("alpha",), float("nan")),
    (("alpha",), float("inf")),
    (("grids", "fd_step"), float("nan")),
    (("grids", "recon_grid", "center", 0), -float("inf")),
    (("grids", "recon_grid", "half_width"), float("inf")),
    (("grids", "recon_grid", "ball_radius"), -float("inf")),
])
def test_non_finite_numbers_rejected(where, value):
    bad = cfg_with()
    obj = bad
    for step in where[:-1]:
        obj = obj[step]
    obj[where[-1]] = value
    path = "config" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in where)
    # an integer beyond the float range reads as inf
    shown = repr(value) if isinstance(value, float) else "inf"
    with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be finite, not {shown}$"):
        parse_config(bad)


@pytest.mark.parametrize("where,value,message", [
    (("phantom",), 5, "config.phantom must be a list of bumps"),
    (("phantom",), {"center": [0.25, 0.1], "geodesic_radius": 0.3, "amplitude": 1.0},
     "config.phantom must be a list of bumps"),
    (("space", "kind"), ["euclidean"], "config.space.kind must be a string"),
    (("phantom", 0, "geodesic_radius"), -0.3, "config.phantom[0]: bump radius must be positive"),
])
def test_config_structure_faults_are_named(tmp_path, capsys, where, value, message):
    bad = cfg_with()
    obj = bad
    for step in where[:-1]:
        obj = obj[step]
    obj[where[-1]] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(bad)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    assert main(["roundtrip", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_finite_json_config_exits_cleanly(tmp_path, capsys):
    # Python's json reads NaN and Infinity; a NaN bump radius used to run
    # through and write a report of nan
    text = json.dumps(cfg_with()).replace('"geodesic_radius": 0.3', '"geodesic_radius": NaN')
    assert "NaN" in text
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "r.csv"
    assert main(["roundtrip", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: config.phantom[0].geodesic_radius must be finite, not nan\n")
    assert not out.exists()


@pytest.mark.parametrize("space,grids,message", [
    ({"kind": "euclidean", "n": 3, "radius": 1.0}, {"boundary_points": 10 ** 400},
     "config.grids.boundary_points must be finite, not inf"),
    ({"kind": "euclidean", "n": 3, "radius": 1e200}, {},
     "config.space.radius 1e+200 gives a chart radius or boundary area in dimension 3 "
     "that no float holds"),
    ({"kind": "hyperbolic", "n": 3, "radius": 800.0}, {},
     "config.space.radius 800.0 gives a chart radius or boundary area in dimension 3 "
     "that no float holds"),
], ids=["boundary_points", "euclidean-radius", "hyperbolic-radius"])
def test_overflowing_config_numbers_exit_cleanly(tmp_path, capsys, space, grids, message):
    # each used to end in an OverflowError, or in a t-grid error naming no
    # field; each fails before any array is allocated
    raw = cfg_with(space=space)
    raw["phantom"][0]["center"] = raw["grids"]["recon_grid"]["center"] = [0.25, 0.1, 0.0]
    raw["grids"].update(grids)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["forward", "--config", str(cfg_path), "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind,alpha,message", [
    ("euclidean", -1.0, r"^config.alpha must be >= \(1-n\)/2 = -0.5, not -1.0$"),
    ("sphere", 0.0, r"^cap traces are generated with config.alpha > 0, not 0.0$"),
    ("hyperbolic", 1.0, "^config.alpha is set, but hyperboloid trace inversion is not provided$"),
])
def test_trace_order_checked_in_config(kind, alpha, message):
    raw = cfg_with()
    raw["space"] = {"kind": kind, "n": 2, "radius": 1.0 if kind == "euclidean" else 0.8}
    parse_config(raw)
    raw["alpha"] = alpha
    with pytest.raises(ConfigError, match=message):
        parse_config(raw)


def test_means_csv_roundtrip_bitwise(tmp_path):
    space = SpaceSpec(EUCLIDEAN, 2, 1.0)
    ph = Phantom(space, (Bump(np.array([0.25, 0.1]), 0.3, 1.0),))
    bd = boundary_grid(space, 16)
    tg = default_tgrid(space, 100)
    data = forward_means(ph, bd, tg)
    p1 = tmp_path / "m1.csv"
    p2 = tmp_path / "m2.csv"
    write_means(data, str(p1))
    back = read_means(str(p1))
    assert np.array_equal(back.values, data.values)
    assert back.alpha is None and back.space == data.space
    write_means(back, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_means_file_bytes(tmp_path):
    space = SpaceSpec(EUCLIDEAN, 3, 1.0)
    bd = boundary_grid(space, 12)
    tg = default_tgrid(space, 64)
    values = np.random.default_rng(5).standard_normal((bd.m, tg.n)) * 10.0 ** np.arange(-32, 32)
    data = MeanData(space, bd, tg, values, alpha=1.5)
    meta = {"space": {"kind": "euclidean", "n": 3, "radius": "1.0"}, "boundary_m": bd.m,
            "t0": repr(tg.a), "t1": repr(tg.b), "t_points": 64, "alpha": "1.5"}
    rows = [f"{i},{float(t)!r},{float(values[i, j])!r}"
            for i in range(bd.m) for j, t in enumerate(tg.values)]
    expect = "\n".join([MEANS_MAGIC, "# " + json.dumps(meta, sort_keys=True),
                        "center_idx,t,value"] + rows) + "\n"
    path = tmp_path / "means.csv"
    write_means(data, str(path))
    assert path.read_bytes() == expect.encode()


def line_by_line_write_means(data, path):
    """Every line formatted on its own, one centre at a time: the reference
    route for write_means."""
    space = data.space
    meta = {
        "space": {"kind": space.kind, "n": space.n, "radius": repr(space.radius)},
        "boundary_m": data.boundary.m,
        "t0": repr(data.tgrid.a),
        "t1": repr(data.tgrid.b),
        "t_points": data.tgrid.n,
        "alpha": None if data.alpha is None else repr(data.alpha),
    }
    t = [repr(v) for v in data.tgrid.values.tolist()]
    with open(path, "w") as fh:
        fh.write(f"{MEANS_MAGIC}\n# {json.dumps(meta, sort_keys=True)}\ncenter_idx,t,value\n")
        for i, row in enumerate(data.values):
            fh.write("".join([f"{i},{tj},{v!r}\n" for tj, v in zip(t, row.tolist())]))


@pytest.mark.parametrize("case", ["random", "off-centre", "centred", "centred-dense"])
def test_means_file_is_the_line_by_line_writers(tmp_path, case):
    # write_means formats a row's ",t,value" texts once and joins them with
    # the centre index, and the one row of radial means once for all, whether
    # broadcast or dense
    space = SpaceSpec(EUCLIDEAN, 3, 1.0)
    bd = boundary_grid(space, 32)
    tg = default_tgrid(space, 64)
    if case == "random":
        values = np.random.default_rng(6).standard_normal((bd.m, tg.n)) * 10.0 ** np.arange(-32, 32)
        data = MeanData(space, bd, tg, values, alpha=-0.5)
    else:
        centre = np.array([0.2, -0.1, 0.1]) if case == "off-centre" else np.zeros(3)
        data = forward_means(Phantom(space, (Bump(centre, 0.3, 0.7),)), bd, tg)
    if case == "centred-dense":
        data = MeanData(space, bd, tg, np.array(data.values))
    assert (data.values.strides[0] == 0) == (case == "centred")
    assert (data.rows.shape[0] == 1) == case.startswith("centred")
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_means(data, str(got))
    line_by_line_write_means(data, str(ref))
    assert got.read_bytes() == ref.read_bytes()


@pytest.fixture
def means_file(tmp_path):
    """A valid means file and the data written to it."""
    space = SpaceSpec(EUCLIDEAN, 2, 1.0)
    ph = Phantom(space, (Bump(np.array([0.25, 0.1]), 0.3, 1.0),))
    data = forward_means(ph, boundary_grid(space, 8), default_tgrid(space, 64))
    path = tmp_path / "means.csv"
    write_means(data, str(path))
    return path, data


def rewrite_rows(path, edit):
    """Replace the data rows of a means file by edit(rows), rows as field lists."""
    lines = path.read_text().splitlines()
    rows = edit([line.split(",") for line in lines[3:]])
    path.write_text("\n".join(lines[:3] + [",".join(r) for r in rows]) + "\n")


# chunk sizes the reader is run at: its own, and 7 lines, which puts chunk
# boundaries inside even the smallest test files
READ_ROWS = (cli._READ_ROWS, 7)


def read_error(path):
    """The message of read_means on path, the same at every chunk size."""
    messages = []
    for rows in READ_ROWS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_READ_ROWS", rows)
            with pytest.raises(ValueError) as err:
                read_means(str(path))
        messages.append(str(err.value))
    assert messages == messages[:1] * len(READ_ROWS)
    return messages[0]


def test_means_rows_in_any_order(means_file):
    path, data = means_file
    rewrite_rows(path, lambda rows: sorted(rows, key=lambda r: (float(r[1]), int(r[0]))))
    assert path.read_text().splitlines()[4].startswith("1,")  # t-major now
    assert np.array_equal(read_means(str(path)).values, data.values)


@settings(max_examples=15, deadline=None)
@given(arrays(np.float64, (6, 64), elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.permutations(range(6 * 64)))
def test_means_roundtrip_under_row_permutations(values, order):
    space = SpaceSpec(EUCLIDEAN, 2, 1.0)
    data = MeanData(space, boundary_grid(space, 6), default_tgrid(space, 64), values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "means.csv"
        write_means(data, str(path))
        rewrite_rows(path, lambda rows: [rows[k] for k in order])
        for read_rows in READ_ROWS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_READ_ROWS", read_rows)
                back = read_means(str(path))
            assert np.array_equal(back.values, data.values)
            assert np.array_equal(back.tgrid.values, data.tgrid.values)
            assert np.array_equal(back.boundary.centers, data.boundary.centers)


def test_means_t_column_checked(means_file):
    path, _ = means_file

    def shift(rows):
        rows[70][1] = repr(float(rows[70][1]) + 1e-9)
        return rows

    rewrite_rows(path, shift)
    assert re.search("^means data row 70: t .* not on the metadata t-grid", read_error(path))


def test_means_t_column_out_of_range(means_file):
    path, _ = means_file
    rewrite_rows(path, lambda rows: [[r[0], "123.0", r[2]] for r in rows])
    assert re.search("^means data row 0: .* outside the 8 centres x 64 t-points",
                     read_error(path))


@pytest.mark.parametrize("idx", ["8", "-1", "2.5"])
def test_means_center_index_out_of_range(means_file, idx):
    path, _ = means_file

    def corrupt(rows):
        rows[5][0] = idx
        return rows

    rewrite_rows(path, corrupt)
    assert read_error(path).startswith(f"means data row 5: center_idx {float(idx)!r}")


def test_means_missing_cell(means_file):
    path, _ = means_file
    rewrite_rows(path, lambda rows: rows[:100] + rows[101:])
    assert read_error(path).startswith("means file has no row for center_idx 1, t ")


def test_means_repeated_cell(means_file):
    path, _ = means_file
    # same row count as the metadata: one cell twice, another never
    rewrite_rows(path, lambda rows: rows[:100] + [rows[99]] + rows[101:])
    assert read_error(path).startswith("means file has 2 rows for center_idx 1, t ")


def test_means_empty_body(means_file):
    path, _ = means_file
    rewrite_rows(path, lambda rows: [])
    assert read_error(path) == "means file has no data rows"


def whole_file_parse_error(path):
    """The reader's message for a malformed row, as one parse of all the data
    rows reports it, with the row counted from 0: loadtxt counts from 0 in a
    conversion error, from 1 in a change of column count."""
    with open(path) as fh:
        for _ in range(3):
            fh.readline()
        with pytest.raises(ValueError) as err:
            np.loadtxt(fh, delimiter=",", ndmin=2)
    message = str(err.value)
    if "number of columns changed" in message:
        message = re.sub(r"at row (\d+)", lambda g: f"at row {int(g[1]) - 1}", message)
    return f"malformed means row: {message}"


def _bad_value(rows, k):
    rows[k][2] = "abc"


def _two_fields(rows, k):
    rows[k] = rows[k][:2]


def _four_fields_from(rows, k):
    for r in rows[k:]:
        r.append("0.5")


@pytest.mark.parametrize("edit", [_bad_value, _two_fields, _four_fields_from])
@pytest.mark.parametrize("row", [1, 6, 7, 8191, 8192, 9000])
def test_means_malformed_rows_are_numbered_in_the_file(tmp_path, edit, row):
    # 10 240 data rows, more than one chunk at every chunk size, with comment
    # and blank lines, which are not data rows, ahead of the bad one
    space = SpaceSpec(EUCLIDEAN, 2, 1.0)
    values = np.random.default_rng(3).standard_normal((160, 64))
    path = tmp_path / "means.csv"
    write_means(MeanData(space, boundary_grid(space, 160), default_tgrid(space, 64), values),
                str(path))

    def corrupt(rows):
        edit(rows, row)
        return rows[:3] + [["# a comment"], [""]] + rows[3:]

    rewrite_rows(path, corrupt)
    message = read_error(path)
    assert message == whole_file_parse_error(path)
    assert f" at row {row}" in message


@pytest.mark.parametrize("faults,reported", [
    # an index out of range anywhere comes before a t off the grid
    ({3: (None, "+1e-9"), 300: ("9", None)}, "^means data row 300: center_idx 9.0"),
    ({3: (None, "+1e-9"), 300: (None, "+1e-9")}, "^means data row 3: t .* not on the"),
    # a malformed row anywhere comes before both
    ({3: ("9", None), 300: ("x", None)}, "^malformed means row: .*'x'.* at row 300"),
])
def test_means_fault_precedence_is_the_whole_files(means_file, faults, reported):
    path, _ = means_file

    def corrupt(rows):
        for k, (idx, shift) in faults.items():
            rows[k][0] = idx or rows[k][0]
            rows[k][1] = repr(float(rows[k][1]) + float(shift)) if shift else rows[k][1]
        return rows

    rewrite_rows(path, corrupt)
    assert re.search(reported, read_error(path))


def test_means_read_memory_is_bounded(tmp_path):
    # 409 600 rows: the reader holds the values, a 4-byte count per cell and
    # one chunk; a whole-file parse peaks at 9.3 times the values
    import tracemalloc

    space = SpaceSpec(EUCLIDEAN, 2, 1.0)
    values = np.random.default_rng(4).standard_normal((640, 640))
    path = tmp_path / "means.csv"
    write_means(MeanData(space, boundary_grid(space, 640), default_tgrid(space, 640), values),
                str(path))
    tracemalloc.start()
    try:
        back = read_means(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, values)
    assert peak < 3.0 * values.nbytes


def test_means_short_t_grid(means_file):
    # a file consistent in itself, on a 10-point t-grid
    path, _ = means_file
    lines = path.read_text().splitlines()
    meta = json.loads(lines[1][2:])
    meta["t_points"] = 10
    t = np.linspace(float(meta["t0"]), float(meta["t1"]), 10)
    rows = [f"{i},{float(tj)!r},0.5" for i in range(meta["boundary_m"]) for tj in t]
    path.write_text("\n".join([lines[0], "# " + json.dumps(meta), lines[2]] + rows) + "\n")
    with pytest.raises(ValueError, match="t_points 10 .*shorter than 64 nodes"):
        read_means(str(path))


def test_means_t_grid_outside_the_section_range(means_file):
    # a file consistent in itself, on a t-grid that ends past 2R
    path, _ = means_file
    lines = path.read_text().splitlines()
    meta = json.loads(lines[1][2:])
    t = np.linspace(float(meta["t0"]) + 0.2, float(meta["t1"]) + 0.2, meta["t_points"])
    meta["t0"], meta["t1"] = repr(float(t[0])), repr(float(t[-1]))
    rows = [f"{i},{float(tj)!r},0.5" for i in range(meta["boundary_m"]) for tj in t]
    path.write_text("\n".join([lines[0], "# " + json.dumps(meta), lines[2]] + rows) + "\n")
    with pytest.raises(ValueError, match=r"t1 = 2\.199.* leaves the euclidean section range"):
        read_means(str(path))


DROP = object()


def _edit_means_metadata(path, changes):
    """Rewrite fields of the metadata of a means file; a field changed to
    DROP is removed."""
    lines = path.read_text().splitlines()
    meta = json.loads(lines[1][2:])
    meta.update(changes)
    meta = {key: value for key, value in meta.items() if value is not DROP}
    path.write_text("\n".join([lines[0], "# " + json.dumps(meta)] + lines[2:]) + "\n")


def _set_means_alpha(path, alpha):
    """Rewrite the metadata's trace order of a means file."""
    _edit_means_metadata(path, {"alpha": alpha})


@pytest.mark.parametrize("changes,message", [
    ({"space": DROP}, "missing field means metadata.space"),
    ({"t_points": DROP}, "missing field means metadata.t_points"),
    ({"colour": "red"}, "unknown field means metadata.colour"),
    ({"t_points": 64.5}, "means metadata.t_points must be an integer"),
    ({"boundary_m": -1}, "means metadata.boundary_m must be >= 4, not -1"),
    ({"alpha": "x"}, "means metadata.alpha must be a float written as a string, not 'x'"),
    ({"t0": 0.001}, "means metadata.t0 must be a float written as a string, not 0.001"),
    ({"space": {"kind": ["euclidean"], "n": 2, "radius": "1.0"}},
     "means metadata.space.kind must be a string"),
    ({"space": {"kind": "euclidean", "n": 2.0, "radius": "1.0"}},
     "means metadata.space.n must be an integer"),
    ({"space": {"kind": "euclidean", "n": 2, "radius": "wide"}},
     "means metadata.space.radius must be a float written as a string, not 'wide'"),
    ({"space": {"kind": "sphere", "n": 3, "radius": "0.8"}, "boundary_m": 10},
     "means metadata.boundary_m 10 is no boundary grid size of the space: "
     "a budget of 10 gives 8 centres"),
    ({"boundary_m": 10 ** 400}, "means metadata.boundary_m must be finite, not inf"),
    ({"space": {"kind": "hyperbolic", "n": 2, "radius": "800.0"}},
     "means metadata.space.radius 800.0 gives a chart radius or boundary area in "
     "dimension 2 that no float holds"),
])
def test_means_metadata_faults_are_named(means_file, changes, message):
    path, _ = means_file
    _edit_means_metadata(path, changes)
    assert read_error(path) == message


@pytest.mark.parametrize("line,message", [
    ("# [1, 2]", "^means metadata must be an object$"),
    ("# {space", "^means metadata is not valid JSON: "),
])
def test_means_metadata_must_be_a_json_object(means_file, line, message):
    path, _ = means_file
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], line] + lines[2:]) + "\n")
    assert re.search(message, read_error(path))


def test_means_metadata_faults_exit_cleanly(tmp_path, means_file, capsys):
    path, _ = means_file
    _edit_means_metadata(path, {"space": DROP})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_with()))
    assert main(["invert", "--config", str(cfg_path), "--means", str(path),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == "error: missing field means metadata.space\n"


@pytest.mark.parametrize("alpha,message", [
    ("inf", "alpha must be finite, not inf"),
    ("nan", "alpha must be finite, not nan"),
    ("-1.0", r"alpha must be >= \(1-n\)/2 = -0.5, not -1.0"),
])
def test_means_trace_order_checked(means_file, alpha, message):
    path, _ = means_file
    _set_means_alpha(path, "0.5")
    assert read_means(str(path)).alpha == 0.5
    _set_means_alpha(path, alpha)
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_means(str(path))


@pytest.mark.parametrize("changes,message", [
    ({"alpha": "-5.0"}, r"^alpha must be >= \(1-n\)/2 = -0\.5, not -5\.0$"),
    ({"t1": "2.2"}, r"^t-grid from t0 = .* to t1 = 2\.2 leaves the euclidean section range"),
], ids=["alpha", "t1"])
def test_means_metadata_is_checked_before_the_rows(means_file, changes, message):
    # a bad trace order or a t-grid past 2R is reported ahead of a malformed
    # row 0: the metadata is checked before any row is read
    path, _ = means_file
    _edit_means_metadata(path, changes)

    def corrupt(rows):
        _bad_value(rows, 0)
        return rows

    rewrite_rows(path, corrupt)
    assert re.search(message, read_error(path))


def test_means_hyperboloid_trace_rejected(tmp_path):
    space = SpaceSpec("hyperbolic", 2, 0.8)
    ph = Phantom(space, (Bump(spaces.lift(space, np.array([0.1, 0.0])), 0.2, 1.0),))
    path = tmp_path / "means.csv"
    write_means(forward_means(ph, boundary_grid(space, 8), default_tgrid(space, 64)), str(path))
    _set_means_alpha(path, "1.0")
    with pytest.raises(ValueError, match="^alpha is set, but hyperboloid trace inversion"):
        read_means(str(path))


def test_means_infinite_trace_order_exits_cleanly(tmp_path, means_file, capsys):
    # an infinite order used to end `geomeans invert` in an OverflowError
    path, _ = means_file
    _set_means_alpha(path, "inf")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_with()))
    assert main(["invert", "--config", str(cfg_path), "--means", str(path),
                 "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == "error: alpha must be finite, not inf\n"


def test_means_magic_check(tmp_path):
    p = tmp_path / "bogus.csv"
    p.write_text("not a means file\n")
    with pytest.raises(ValueError, match="geomeans-means"):
        read_means(str(p))


def test_roundtrip_command_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_with()))
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["roundtrip", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["roundtrip", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows, footer = read_report(str(out1))
    assert header == ["x_1", "x_2", "f_true", "f_rec"]
    assert float(footer["rel_l2"]) < 0.03


NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises
from geomeans.cli import main
codes = [main(["roundtrip", "--config", cfg, "--out", out])
         for cfg, out in zip(sys.argv[1::2], sys.argv[2::2])]
loaded = [name for name, mod in sys.modules.items() if name.startswith("scipy") and mod]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_roundtrips_run_without_scipy(tmp_path):
    # euclid4 builds the Gauss-Jacobi boundary rule, epd_sphere3 the
    # Riemann-Liouville rule; numpy is the only runtime dependency
    import geomeans

    src = str(Path(geomeans.__file__).resolve().parents[1])
    configs = Path(__file__).resolve().parents[1] / "configs"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = []
    for name in ("euclid4", "epd_sphere3"):
        args += [str(configs / f"{name}.json"), str(tmp_path / f"{name}.csv")]
    run = subprocess.run([sys.executable, "-c", NO_SCIPY, *args], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0], "loaded": []}


def test_forward_invert_pipeline(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_with()))
    means = tmp_path / "means.csv"
    rep = tmp_path / "rep.csv"
    assert main(["forward", "--config", str(cfg_path), "--out", str(means)]) == 0
    assert main(["invert", "--config", str(cfg_path), "--means", str(means),
                 "--out", str(rep)]) == 0
    _, rows, footer = read_report(str(rep))
    assert rows.shape[1] == 4
    assert float(footer["rel_l2"]) < 0.03


def test_invert_rejects_means_of_another_space(tmp_path, means_file, capsys):
    path, _ = means_file
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_with(space={"kind": "euclidean", "n": 2, "radius": 1.2})))
    out = tmp_path / "r.csv"
    assert main(["invert", "--config", str(cfg_path), "--means", str(path),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: means file space does not match the config\n"
    assert not out.exists()


def test_epd_roundtrip_is_the_roundtrip_of_a_trace_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_with()))
    epd, plain = tmp_path / "epd.csv", tmp_path / "plain.csv"
    assert main(["epd-roundtrip", "--config", str(cfg_path), "--out", str(epd)]) == 2
    assert capsys.readouterr().err == "error: epd-roundtrip needs config.alpha\n"
    assert not epd.exists()
    cfg_path.write_text(json.dumps(cfg_with(alpha=1.0)))
    assert main(["epd-roundtrip", "--config", str(cfg_path), "--out", str(epd)]) == 0
    assert main(["roundtrip", "--config", str(cfg_path), "--out", str(plain)]) == 0
    assert epd.read_bytes() == plain.read_bytes()


def test_render_uniform_image(tmp_path):
    rep = tmp_path / "rep.csv"
    lines = ["x_1,x_2,f_true,f_rec"]
    for a in np.linspace(-1, 1, 5):
        for b in np.linspace(-1, 1, 5):
            lines.append(f"{float(a)!r},{float(b)!r},0.0,0.0")
    lines.append('# {"rel_l2": "0.0", "sup_err": "0.0", "calibration": "1.0", "method": "direct"}')
    rep.write_text("\n".join(lines) + "\n")
    out = tmp_path / "img.pgm"
    assert main(["render", "--report", str(rep), "--out", str(out)]) == 0
    content = out.read_text().splitlines()
    assert content[0] == "P2"
    pixels = " ".join(content[4:]).split()
    assert set(pixels) == {"0"}


def test_render_slice(tmp_path):
    rep = tmp_path / "rep.csv"
    lines = ["x_1,x_2,x_3,f_true,f_rec"]
    for a in np.linspace(-1, 1, 4):
        for b in np.linspace(-1, 1, 4):
            for c in (-0.5, 0.5):
                lines.append(f"{float(a)!r},{float(b)!r},{float(c)!r},0.0,{float(a * b)!r}")
    lines.append('# {"rel_l2": "0.0", "sup_err": "0.0", "calibration": "1.0", "method": "direct"}')
    rep.write_text("\n".join(lines) + "\n")
    out = tmp_path / "img.pgm"
    assert main(["render", "--report", str(rep), "--out", str(out),
                 "--slice", "x3=0.5"]) == 0
    content = out.read_text().splitlines()
    assert content[2] == "4 4"


def test_render_rejects_a_slice_that_leaves_three_axes(tmp_path, capsys):
    rep = tmp_path / "rep.csv"
    lines = ["x_1,x_2,x_3,x_4,f_true,f_rec"]
    for a in (-0.5, 0.5):
        for b in (-0.5, 0.5):
            for c in (-0.5, 0.5):
                lines.append(f"{a!r},{b!r},{c!r},0.0,0.0,0.0")
    lines.append('# {"rel_l2": "0.0", "sup_err": "0.0", "calibration": "1.0", "method": "direct"}')
    rep.write_text("\n".join(lines) + "\n")
    out = tmp_path / "img.pgm"
    assert main(["render", "--report", str(rep), "--out", str(out), "--slice", "x4=0.0"]) == 2
    assert capsys.readouterr().err == "error: slice must reduce the grid to exactly 2 axes\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def euclid3_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("render") / "euclid3.csv"
    cfg = cfg_with(space={"kind": "euclidean", "n": 3, "radius": 1.0},
                   phantom=[{"center": [0.2, 0.1, 0.0], "geodesic_radius": 0.3,
                             "amplitude": 1.0}])
    cfg["grids"].update(boundary_points=128, t_points=128,
                        recon_grid={"center": [0.2, 0.1, 0.0], "half_width": 0.3,
                                    "points_per_axis": 5})
    cfg_path = path.with_suffix(".json")
    cfg_path.write_text(json.dumps(cfg))
    assert main(["roundtrip", "--config", str(cfg_path), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("spec,message", [
    ("x7=0.0", "slice part 'x7=0.0' names no axis of the report, which has x1..x3"),
    ("x0=0.0", "slice part 'x0=0.0' names no axis of the report, which has x1..x3"),
    ("x3=5.0", "slice part 'x3=5.0' selects no point of the report"),
    ("x1=0.1,x1=0.2", "slice part 'x1=0.2' repeats axis x1"),
    ("x3", "slice part 'x3' is not of the form x<axis>=<finite number>"),
    ("y3=0.0", "slice part 'y3=0.0' is not of the form x<axis>=<finite number>"),
    ("x3=nan", "slice part 'x3=nan' is not of the form x<axis>=<finite number>"),
])
def test_render_rejects_bad_slices(euclid3_report, tmp_path, capsys, spec, message):
    out = tmp_path / "img.pgm"
    capsys.readouterr()
    assert main(["render", "--report", str(euclid3_report), "--out", str(out),
                 "--slice", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_render_slices_a_roundtrip_report(euclid3_report, tmp_path):
    out = tmp_path / "img.pgm"
    assert main(["render", "--report", str(euclid3_report), "--out", str(out),
                 "--slice", "x3=0.0"]) == 0
    assert out.read_text().splitlines()[2] == "5 5"


def test_render_rejects_an_empty_report(tmp_path, capsys):
    rep = tmp_path / "rep.csv"
    rep.write_text("x_1,x_2,x_3,f_true,f_rec\n"
                   '# {"rel_l2": "nan", "sup_err": "nan", "calibration": "nan", "method": "direct"}\n')
    assert main(["render", "--report", str(rep), "--out", str(tmp_path / "img.pgm")]) == 2
    assert capsys.readouterr().err == f"error: report {rep} has no rows\n"


@pytest.mark.parametrize("row,message", [
    ("0.5,0.25,1.0", "data row 1 has 3 cells for the 4 columns x_1,x_2,f_true,f_rec"),
    ("0.5,abc,0.0,1.0", "data row 1, column x_2: 'abc' is not a finite number"),
    ("0.5,0.25,0.0,nan", "data row 1, column f_rec: 'nan' is not a finite number"),
])
def test_render_names_a_malformed_report_row(tmp_path, capsys, row, message):
    # a short row, a cell that is no float and a NaN reconstruction each
    # fail naming the data row, counted from 0, and the column
    rep = tmp_path / "rep.csv"
    rep.write_text("x_1,x_2,f_true,f_rec\n0.0,0.0,1.0,1.0\n" + row + "\n0.5,0.5,0.0,0.0\n"
                   '# {"rel_l2": "0.0", "sup_err": "0.0", "calibration": "1.0", "method": "direct"}\n')
    out = tmp_path / "img.pgm"
    assert main(["render", "--report", str(rep), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: report {rep} {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("header,footer,message", [
    ("x_1,x_2,f_rec", None, "header: 'x_1,x_2,f_rec' is not x_1,...,x_n,f_true,f_rec"),
    ("x_2,x_1,f_true,f_rec", None,
     "header: 'x_2,x_1,f_true,f_rec' is not x_1,...,x_n,f_true,f_rec"),
    ("", None, "header: '' is not x_1,...,x_n,f_true,f_rec"),
    (None, "# {rel_l2: 0}", "footer: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    (None, '# ["rel_l2"]', "footer: '[\"rel_l2\"]' is not a JSON object"),
], ids=["short-header", "swapped-header", "empty-header", "footer-not-json",
       "footer-not-object"])
def test_render_names_a_malformed_report_header_or_footer(tmp_path, capsys, header, footer,
                                                          message):
    rep = tmp_path / "rep.csv"
    rep.write_text((header if header is not None else "x_1,x_2,f_true,f_rec") + "\n"
                   "0.0,0.0,1.0,1.0\n0.5,0.5,0.0,0.0\n"
                   + (footer or '# {"rel_l2": "0.0", "method": "direct"}') + "\n")
    out = tmp_path / "img.pgm"
    assert main(["render", "--report", str(rep), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: report {rep} {message}\n"
    assert not out.exists()


def test_pgm_minmax_comment(tmp_path):
    out = tmp_path / "img.pgm"
    write_pgm(np.array([[0.0, 1.0], [2.0, 3.0]]), str(out))
    lines = out.read_text().splitlines()
    assert lines[1].startswith("# min=0.0 max=3.0")
    assert lines[3] == "255"
    assert lines[4].split() == ["0", "85"]
    assert lines[5].split() == ["170", "255"]


def test_verify_subcommand_fractional(capsys):
    assert main(["verify", "--suite", "fractional"]) == 0
    labels = [label for check in checks.CHECKS if check.suite == "fractional"
              for label, _, _ in check.bounds]
    *lines, last = capsys.readouterr().out.splitlines()
    assert labels and len(lines) == len(labels)
    for line, label in zip(lines, labels):
        assert line.startswith(f"[acceptance] {label} ") and line.endswith("  PASS")
    assert last == "all checks passed"


def test_importing_cli_leaves_the_checks_unloaded():
    # only verify reads the acceptance registry; a process that imports cli
    # to run a config does not load it
    import geomeans

    src = str(Path(geomeans.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", "import sys, geomeans.cli; print(sorted(sys.modules))"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "'geomeans.cli'" in run.stdout
    assert "'geomeans.checks'" not in run.stdout


ROUNDTRIP_MODULES = """
import json, sys
from geomeans.cli import main
code = main(["roundtrip", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"code": code, "checks": "geomeans.checks" in sys.modules}))
"""


def test_roundtrip_leaves_the_checks_unloaded(tmp_path):
    # main no longer reads the suites or the seed for its parser, so a round
    # trip through main does not load the acceptance registry
    import geomeans

    src = str(Path(geomeans.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_with(grids={"boundary_points": 32, "t_points": 128})))
    run = subprocess.run([sys.executable, "-c", ROUNDTRIP_MODULES, str(cfg),
                          str(tmp_path / "report.csv")], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.strip().splitlines()[-1]) == {"code": 0, "checks": False}


def test_verify_rejects_an_unknown_suite_by_name(capsys):
    assert main(["verify", "--suite", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown suite 'nosuch'; pick ")
    assert all(name in err for name in (*checks.SUITES, "all"))


def test_verify_fails_on_a_strict_bound(monkeypatch, capsys):
    # criterion 2 holds its figure strictly below the bound: a figure equal
    # to the bound fails in the printed status and in the exit code
    check = next(c for c in checks.CHECKS if c.number == 2)
    (_, op, bound), = check.bounds
    assert op == "<"
    on_bound = dataclasses.replace(check, compute=lambda seed: (bound,))
    monkeypatch.setattr(checks, "CHECKS", (on_bound,))
    assert main(["verify", "--suite", "lemmas"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("[acceptance] 2. direct vs continued (abs)")
    assert out[0].endswith("1.000e-08 < 1.0e-08  FAIL")
    assert out[1] == "1 check(s) FAILED"


def test_verify_roundtrips_reads_every_shipped_config(monkeypatch, capsys):
    # every file in configs/ is read by a round-trip entry, so that the
    # shipped configs and the criteria cannot drift apart
    read = set()
    roundtrip = checks._roundtrip

    def recording(name, changes=None):
        read.add(name)
        return roundtrip(name, changes)

    monkeypatch.setattr(checks, "_roundtrip", recording)
    assert main(["verify", "--suite", "roundtrips"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 21 and out[-1] == "all checks passed"
    assert read == {path.stem for path in checks.CONFIGS.glob("*.json")}


def test_bad_config_returns_error_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    assert main(["roundtrip", "--config", str(cfg_path), "--out", "/tmp/x.csv"]) == 2
