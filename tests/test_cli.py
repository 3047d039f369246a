import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavemaplab import cli, fields, solver
from wavemaplab.cli import (ConeRequest, ConfigError, ExperimentConfig,
                            Verdict, _crossing_interval, _incone_distance,
                            _parse_cone, expected_defect, load_config, main,
                            smoothing_tolerance)
from wavemaplab.fields import (BoostedHarmonicMap, GridField, MapParams,
                               s_lambda)
from wavemaplab.quadrature import _disk_nodes, energy_balance
from wavemaplab.solver import penalization_sweep, run, trusted_region
from wavemaplab.spacetime import ConeSpec, DiskSpec


# ---------------------------------------------------------------------------
# configuration parsing


def test_defaults_without_config():
    cfg, raw = load_config(None)
    assert cfg == ExperimentConfig()
    assert raw == repr(cfg)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("""
[experiment]
name = demo
out = results

[map]
lam = 1.5
nu = 0.5
lambdas = 1, 2

[solver]
h = 0.03125
t_end = 0.15
penalties = 4, 8

[quadrature]
n_polar = 12

[cones]
only = 0.1, 0, 0 ; 0.4 ; 0, 0.15
""")
    cfg, raw = load_config(str(path))
    assert cfg.name == "demo" and cfg.out_dir == "results"
    assert cfg.lam == 1.5 and cfg.nu == 0.5
    assert cfg.lambdas == (1.0, 2.0)
    assert cfg.h == 0.03125 and cfg.T_end == 0.15
    assert cfg.penalties == (4.0, 8.0)
    assert cfg.n_polar == 12 and cfg.n_radial == 24  # untouched default
    assert cfg.cones == (ConeRequest((0.1, 0.0, 0.0), 0.4, 0.0, 0.15),)
    assert raw == path.read_text()


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[map]\nfoo = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text("[nonsense]\nlam = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    # the commands all start from the boosted hedgehog, which is not
    # periodic on the box: the boundary is not a config key
    path.write_text("[solver]\nboundary = periodic\n")
    with pytest.raises(ConfigError, match="unknown key 'boundary'"):
        load_config(str(path))


@pytest.mark.parametrize("beside", [
    "",
    "[solver]\nh = 0.015625\n",
    "[experiment]\nname = demo\n",
    "[cones]\nc0 = 0,0,0 ; 0.5 ; 0,0.2\n",
], ids=["alone", "solver", "experiment", "cones"])
def test_config_rejects_default_section_keys(beside, tmp_path):
    # configparser copies [DEFAULT] keys into every section
    path = tmp_path / "default.ini"
    path.write_text("[DEFAULT]\nh = 0.03125\n\n" + beside)
    with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
        load_config(str(path))


@pytest.mark.parametrize("section, key", [("solver", "penalties"),
                                          ("map", "lambdas")])
def test_config_rejects_empty_lists(section, key, tmp_path, capsys):
    path = tmp_path / "empty.ini"
    path.write_text(f"[{section}]\n{key} =\n")
    with pytest.raises(ConfigError, match="expected a list of numbers"):
        load_config(str(path))
    assert main(["s-table", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cone_parsing_errors(tmp_path, capsys):
    with pytest.raises(ConfigError):
        _parse_cone("0,0,0 ; 0.4")
    with pytest.raises(ConfigError):
        _parse_cone("0,0 ; 0.4 ; 0,0.1")
    with pytest.raises(ConfigError, match="'s,t'"):
        _parse_cone("0,0,0 ; 0.4 ; 0,0.1,0.2")
    # an empty [cones] section would leave nothing to verify
    path = tmp_path / "no_cones.ini"
    path.write_text("[cones]\n")
    with pytest.raises(ConfigError, match=r"\[cones\]"):
        load_config(str(path))
    for command in ("cone-balance", "nonuniq-demo"):
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_refined_config_scales_resolutions():
    cfg = ExperimentConfig()
    fine = cfg.refined(2)
    assert fine.h == cfg.h / 2
    assert fine.n_polar == 2 * cfg.n_polar
    assert cfg.refined(1) is cfg


# ---------------------------------------------------------------------------
# verdicts and helpers


def test_verdict_constructors():
    assert Verdict.close("a", 1.0, 1.005, 0.01).passed
    assert not Verdict.close("a", 1.0, 1.05, 0.01).passed
    assert Verdict.at_most("b", 0.5, 1.0).passed
    assert not Verdict.at_most("b", 2.0, 1.0).passed
    assert Verdict.at_least("c", 2.0, 1.0).passed
    assert not Verdict.at_least("c", 0.5, 1.0).passed


def test_expected_defect_formula():
    assert expected_defect(2.0, 0.6, 0.2) == pytest.approx(
        0.6 * abs(s_lambda(2.0)) * 0.1)


def test_crossing_interval_classification():
    fld = BoostedHarmonicMap(MapParams(2.0, 0.6))
    assert _crossing_interval(
        ConeRequest((0, 0, 0), 0.5, 0.0, 0.2).build(), fld) == (0.0, 0.2)
    assert _crossing_interval(
        ConeRequest((0.3, 0.3, 0), 0.25, 0.0, 0.1).build(), fld) is None
    # line enters the slices only part of the time
    assert _crossing_interval(
        ConeRequest((0.28, 0, 0), 0.3, 0.0, 0.25).build(), fld) == "partial"


def test_solver_cone_interval_margins():
    cfg = ExperimentConfig()
    inner = trusted_region(cfg.solver_config(), cfg.cones[0].build())
    assert inner.t_min == pytest.approx(0.02)
    assert inner.t_max == pytest.approx(0.18)
    with pytest.raises(ValueError, match="cone interval too short"):
        trusted_region(cfg.solver_config(),
                       ConeRequest((0, 0, 0), 0.5, 0.0, 0.015).build())


def test_narrowed_interval_keeps_the_cone():
    # the line leaves this cone at tau = 0.0125, before the narrowed interval
    # [0.02, 0.18] starts; a cone moved up with the interval would meet it
    cfg = ExperimentConfig()
    cone = _parse_cone("0,0,-0.28 ; 0.3 ; 0,0.2").build()
    inner = trusted_region(cfg.solver_config(), cone)
    assert inner.apex.t == cone.apex.t
    assert np.array_equal(inner.apex.x, cone.apex.x)
    assert _crossing_interval(inner, BoostedHarmonicMap(cfg.params)) is None
    assert smoothing_tolerance(cfg, inner, cfg.params,
                               cfg.penalties[-1]) == 0.0


def test_short_cone_interval_fails_before_the_sweep(tmp_path, monkeypatch,
                                                     capsys):
    path = tmp_path / "short.ini"
    path.write_text("[cones]\nc0 = 0,0,0 ; 0.5 ; 0,0.015\n")

    def never(*args, **kwargs):
        raise AssertionError("sweep run before the cone interval check")

    monkeypatch.setattr(cli, "penalization_sweep", never)
    assert main(["nonuniq-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "cone interval too short" in capsys.readouterr().err


def test_cone_past_the_trusted_region_fails_before_the_sweep(tmp_path,
                                                              monkeypatch):
    # the base disk fits the box, but its points at s = 0.1 reach
    # max|x| + s = 0.75, over the 0.75 - 2 h trusted limit
    path = tmp_path / "wide.ini"
    path.write_text("[cones]\nc0 = 0,0,0 ; 0.65 ; 0.1,0.2\n")

    def never(*args, **kwargs):
        raise AssertionError("sweep run on an untrusted cone")

    monkeypatch.setattr(cli, "penalization_sweep", never)
    assert main(["nonuniq-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2


def test_one_penalty_fails_before_the_sweep(tmp_path, monkeypatch, capsys):
    # nonuniq-demo compares successive penalties, so it needs two of them
    path = tmp_path / "one.ini"
    path.write_text("[solver]\npenalties = 64\n")

    def never(*args, **kwargs):
        raise AssertionError("sweep run with a single penalty")

    monkeypatch.setattr(cli, "penalization_sweep", never)
    assert main(["nonuniq-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "at least two" in capsys.readouterr().err


class _RunReached(Exception):
    pass


def _reach_run(*args, **kwargs):
    raise _RunReached


@pytest.mark.parametrize("command", ["stationary-demo", "penalized-run"])
def test_one_penalty_reaches_the_solver(command, tmp_path, monkeypatch):
    path = tmp_path / "one.ini"
    path.write_text("[solver]\npenalties = 64\n")
    monkeypatch.setattr(cli, "run", _reach_run)
    with pytest.raises(_RunReached):
        main([command, "--config", str(path), "--out", str(tmp_path / "out")])


def test_empty_time_span_fails_before_sampling(tmp_path, monkeypatch, capsys):
    path = tmp_path / "empty.ini"
    path.write_text("[solver]\nt_end = 0\n")
    monkeypatch.setattr(cli, "run", _reach_run)
    assert main(["penalized-run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "T_end must be finite and positive" in capsys.readouterr().err


def test_negative_penalty_fails_before_sampling(tmp_path, monkeypatch, capsys):
    # n < 0 would skip the 1/|n| CFL bound while the force still scales as n^2
    path = tmp_path / "negative.ini"
    path.write_text("[solver]\nh = 0.0625\npenalties = -256\n")
    monkeypatch.setattr(cli, "run", _reach_run)
    assert main(["penalized-run", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "penalty_n must be >= 0" in capsys.readouterr().err


def _no_sampling(*args, **kwargs):
    raise AssertionError("the Cauchy data was sampled")


@pytest.mark.parametrize("command, penalties", [("penalized-run", "nan"),
                                                ("nonuniq-demo", "8, nan")])
def test_non_finite_penalty_fails_before_sampling(command, penalties,
                                                  tmp_path, monkeypatch,
                                                  capsys):
    # nan passes the ascending check and would blow the solver up
    path = tmp_path / "nan.ini"
    path.write_text(f"[solver]\nh = 0.0625\npenalties = {penalties}\n")
    monkeypatch.setattr("wavemaplab.solver._cauchy_data", _no_sampling)
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "penalty_n must be >= 0 and finite, got nan" in err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("key", ["n_time", "n_radial", "n_polar"])
def test_quadrature_count_below_1_fails_as_the_config_loads(key, value,
                                                            tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # unchecked, numpy's Gauss-Legendre rule would refuse it only after the
    # sweep, in words that name no key
    path = tmp_path / "rule.ini"
    path.write_text(f"[quadrature]\n{key} = {value}\n")
    monkeypatch.setattr("wavemaplab.solver._cauchy_data", _no_sampling)
    assert main(["nonuniq-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert (f"config error: {key} must be an integer >= 1, got {value}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("penalties", ["64, 32, 16, 8", "8, 16, 16"],
                         ids=["descending", "repeated"])
@pytest.mark.parametrize("command", ["nonuniq-demo", "stationary-demo",
                                     "penalized-run"])
def test_descending_penalties_fail_before_sampling(command, penalties,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    # each command takes the last penalty as the strongest one
    path = tmp_path / "descending.ini"
    path.write_text(f"[solver]\npenalties = {penalties}\n")
    with pytest.raises(ConfigError, match="strictly ascend"):
        load_config(str(path))
    monkeypatch.setattr(cli, "run", _reach_run)
    monkeypatch.setattr(cli, "penalization_sweep", _reach_run)
    assert main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    assert "penalties must strictly ascend" in capsys.readouterr().err


@pytest.mark.parametrize("config, cause", [
    ("[solver]\nbox_half_width = 0.2\nh = 0.025\n",
     "0 of the 64 exterior samples; a box of half-width 0.2 leaves"),
    ("[map]\nnu = 0.95\n", "stationary-demo needs nu < 0.9165, got 0.95"),
], ids=["small-box", "fast-boost"])
def test_stationary_demo_without_room_fails_before_sampling(
        config, cause, tmp_path, monkeypatch, capsys):
    # the demo's samples read only the config and are drawn before the run,
    # in a bounded number of draws
    path = tmp_path / "demo.ini"
    path.write_text(config)
    monkeypatch.setattr("wavemaplab.solver._cauchy_data", _no_sampling)
    assert main(["stationary-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and cause in err
    assert not (tmp_path / "out").exists()


def _incone_reference(cfg, slab, params, cone, t_ref):
    # the in-cone distance with its estimate as first written: the analytic
    # map sampled on the whole solver grid at three levels, as a GridField
    sing = np.array([0.0, 0.0, params.nu * t_ref])
    disk = DiskSpec(t_ref, cone.apex.x, cone.radius(t_ref) - 2.0 * cfg.h)
    center = sing if np.linalg.norm(sing - disk.center) < disk.radius else None
    xs, w = _disk_nodes(disk, cfg.rule(), center)
    ts = np.full(len(xs), t_ref)
    u_vals = slab.jets_at(ts, xs)[0]
    fld = BoostedHarmonicMap(params)
    a_vals = fld.jets_at(ts, xs)[0]
    dist = float(np.sqrt(np.einsum("n,n->", w,
                                   np.sum((u_vals - a_vals)**2, axis=1))))

    scfg = cfg.solver_config()
    c = scfg.cell_centers_1d()
    X, Y, Z = np.meshgrid(c, c, c, indexing="ij")
    grid_xs = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    levels = []
    for t in (t_ref - cfg.h, t_ref, t_ref + cfg.h):
        vals = fld.jets_at(np.full(len(grid_xs), t), grid_xs)[0]
        levels.append(vals.reshape(len(c), len(c), len(c), 3))
    interp = GridField(t0=t_ref - cfg.h, dt=cfg.h, origin=scfg.origin, h=cfg.h,
                       data=np.stack(levels))
    i_vals = interp.jets_at(ts, xs)[0]
    est = float(np.sqrt(np.einsum("n,n->", w,
                                  np.sum((i_vals - a_vals)**2, axis=1))))
    return dist, est


def test_incone_distance_samples_only_the_corners_it_reads(monkeypatch):
    cfg = ExperimentConfig(h=1.0 / 32.0, n_radial=8, n_polar=8,
                           penalties=(16.0,))
    params = cfg.params
    cone = cfg.cones[0].build()
    inner = trusted_region(cfg.solver_config(), cone)
    t_ref = inner.t_max
    slab, _ = run(cfg.solver_config(penalty_n=16.0), BoostedHarmonicMap(params))
    want = _incone_reference(cfg, slab, params, cone, t_ref)

    nodes = []
    batch = fields.harmonic_v_jet_batch

    def counted(p, xs):
        nodes.append(len(xs))
        return batch(p, xs)

    monkeypatch.setattr(fields, "harmonic_v_jet_batch", counted)
    assert _incone_distance(cfg, slab, params, inner) == want
    assert 0 < sum(nodes) < cfg.solver_config().n_cells ** 3
    # one call at the disk nodes, then one at every corner the estimate reads
    assert len(nodes) == 2


def test_both_incone_comparisons_take_their_disk_from_one_rule(monkeypatch):
    # the sweep's mask reads the outer cone at T_end, the in-cone distance
    # the trusted cone at its top, each through solver.incone_slice once
    cfg = ExperimentConfig(h=1.0 / 16.0, n_radial=8, n_polar=8,
                           penalties=(8.0, 16.0))
    scfg = cfg.solver_config()
    cone = cfg.cones[0].build()
    inner = trusted_region(scfg, cone)
    calls, rule = [], solver.incone_slice

    def spy(solver_cfg, c, t):
        calls.append((c, t))
        return rule(solver_cfg, c, t)

    monkeypatch.setattr(solver, "incone_slice", spy)
    monkeypatch.setattr(cli, "incone_slice", spy)
    sweep = penalization_sweep(cfg.penalties, BoostedHarmonicMap(cfg.params),
                               scfg, cone)
    assert calls == [(cone, cfg.T_end)]
    _incone_distance(cfg, sweep.final_slab, cfg.params, inner)
    assert calls == [(cone, cfg.T_end), (inner, inner.t_max)]


def _windowed_and_whole_sweeps():
    """The same sweep at h = 1/24 twice: storing the cell box of the trusted
    cone, as nonuniq-demo does, and storing the whole grid."""
    cfg = ExperimentConfig(h=1.0 / 24.0, n_radial=8, n_polar=8,
                           penalties=(8.0, 16.0, 32.0))
    scfg = cfg.solver_config()
    cone = cfg.cones[0].build()
    inner = trusted_region(scfg, cone)
    phi = BoostedHarmonicMap(cfg.params)
    return cfg, inner, [penalization_sweep(cfg.penalties, phi, scfg, cone,
                                           read_cones=reads)
                        for reads in ([inner], None)]


def test_windowed_sweep_reads_what_the_whole_slab_holds():
    cfg, inner, (part, whole) = _windowed_and_whole_sweeps()
    scfg = cfg.solver_config()
    box = solver.cell_box(scfg, [inner])
    lo = np.array([s.start for s in box])
    # a real window: the trusted cone reads about half of the 36^3 cells
    assert part.final_slab.data.size < 0.6 * whole.final_slab.data.size
    assert np.array_equal(part.violations, whole.violations)
    assert np.array_equal(part.pair_distances, whole.pair_distances)
    assert part.sample_times == whole.sample_times
    assert np.array_equal(part.final_slab.data,
                          whole.final_slab.data[(slice(None),) + box])
    assert np.array_equal(part.final_slab.origin, scfg.origin + cfg.h * lo)
    n_max = cfg.penalties[-1]
    got, want = (energy_balance(s.final_slab, inner, cfg.rule(),
                                penalty_n=n_max) for s in (part, whole))
    for a, b in ((got, want), (got.unpenalized, want.unpenalized)):
        for key in ("e_base", "e_top", "flux", "balance"):
            assert getattr(a, key) == pytest.approx(getattr(b, key),
                                                    rel=1e-12), key
    for a, b in zip(*(_incone_distance(cfg, s.final_slab, cfg.params, inner)
                      for s in (part, whole))):
        assert a == pytest.approx(b, rel=1e-12)


def test_weaker_sweep_runs_allocate_no_slab(monkeypatch):
    # a slab is the one 5-d array the solver allocates: (levels, x, y, z, 3)
    slabs, empty = [], np.empty

    def spy(shape, *args, **kwargs):
        if len(np.atleast_1d(shape)) == 5:
            slabs.append(tuple(shape))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    cfg, inner, (part, whole) = _windowed_and_whole_sweeps()
    assert slabs == [part.final_slab.data.shape, whole.final_slab.data.shape]
    assert whole.final_slab.data.shape[1:4] == (cfg.solver_config().n_cells,) * 3


# a centred cone, an off-centre one and one whose box is clipped at the
# +x face of the 36^3 grid: (base centre, base radius, height)
WINDOW_CONES = {
    "centred": ((0.0, 0.0, 0.0), 0.5, 0.2),
    "off-centre": ((0.11, -0.2, 0.05), 0.45, 0.2),
    "clipped": ((0.4, 0.0, 0.0), 0.32, 0.2),
}


class _Nodes(fields.FieldEvaluator):
    """Records the nodes it is queried at; grades disks toward ``point``."""

    def __init__(self, point=None):
        self.point, self.xs = point, []

    def jets_at(self, ts, xs):
        self.xs.append(np.array(xs))
        n = len(xs)
        return np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3, 3))

    def singular_point(self, t):
        return self.point


@pytest.mark.parametrize("name", WINDOW_CONES)
def test_every_node_has_a_neighbour_cell_each_side_in_the_box(name):
    cfg = ExperimentConfig(h=1.0 / 24.0)
    scfg = cfg.solver_config()
    center, radius, height = WINDOW_CONES[name]
    cone = ConeSpec.from_base(np.array(center), radius, 0.0, height)
    box = solver.cell_box(scfg, [cone])
    lo = np.array([s.start for s in box])
    hi = np.array([s.stop for s in box])
    n = scfg.n_cells
    assert (name == "clipped") == (hi[0] == n)
    # every node of the cone balance, centred and graded toward a point off
    # the apex, and of the in-cone distance's disk
    disk = solver.incone_slice(scfg, cone, cone.t_max)
    off = disk.center + np.array([0.3, -0.2, 0.1]) * disk.radius
    xs = [_disk_nodes(disk, cfg.rule(), off)[0]]
    for fld in (_Nodes(), _Nodes(off)):
        energy_balance(fld, cone, cfg.rule(), penalty_n=8.0)
        xs += fld.xs
    cell = np.floor((np.concatenate(xs) - scfg.origin) / cfg.h).astype(int)
    # the cell [i, i + 1] of each node has cells i - 1 and i + 2 in the box,
    # unless the box ends at the grid's face, where the whole slab too takes
    # the face formula
    assert np.all((cell - 1 >= lo) | ((lo == 0) & (cell >= 0)))
    assert np.all((cell + 2 < hi) | ((hi == n) & (cell + 1 < n)))


def test_query_outside_the_stored_box_names_the_slab():
    cfg, inner, (part, _) = _windowed_and_whole_sweeps()
    slab = part.final_slab
    last = slab.origin + cfg.h * (np.array(slab.shape[1:]) - 1)
    t_in, x_in = 0.1, np.array(inner.apex.x)
    slab.jets_at([t_in], [x_in])
    expected = (r"point outside the grid slab \(with margin\): it holds t in "
                rf"\[0, {slab.t_max:g}\] and x in "
                + r" x ".join(rf"\[{a:g}, {b:g}\]"
                              for a, b in zip(slab.origin, last)))
    x_out = x_in.copy()
    x_out[0] = last[0] + cfg.h  # a cell past the box
    for t, x in ((t_in, x_out), (slab.t_max + slab.dt, x_in)):
        with pytest.raises(ValueError, match=expected):
            slab.jets_at([t], [x])


def test_empty_incone_slice_fails_before_sampling(tmp_path, monkeypatch,
                                                  capsys):
    # at T_end = 0.2 the cone's slice has radius 0.03, within 2 h = 0.0417:
    # the sweep would compare no cells and report distances of 0.0
    path = tmp_path / "thin.ini"
    path.write_text("[solver]\nh = 0.0208333333333333333\n"
                    "[cones]\nc = 0,0,0 ; 0.23 ; 0,0.2\n")
    monkeypatch.setattr("wavemaplab.solver._cauchy_data", _no_sampling)
    assert main(["nonuniq-demo", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error: the in-cone slice at t = 0.2 is empty" in err
    assert "radius 0.03, not more than the 2 h = 0.0416667" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# command driver (fast commands only; the heavy demos run in the acceptance
# suite)


def test_s_table_command(tmp_path, capsys):
    code = main(["s-table", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    report = json.loads((tmp_path / "s_table_report.json").read_text())
    assert report["all_passed"]
    assert report["provenance"]["config_sha256"]
    ratios = [r for r in report["results"]["quadrature_over_formula"]
              if r is not None]
    # the measured charge is -s(lam)/2: ratio -1/2 against the closed form
    assert np.allclose(ratios, -0.5, atol=5e-3)
    csv_rows = (tmp_path / "s_table.csv").read_text().strip().splitlines()
    assert csv_rows[0] == "lam,s_formula,s_quadrature,rel_diff_vs_formula"
    assert len(csv_rows) == 1 + 4


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_fast_reports_are_valid_json(tmp_path):
    # s(1) = 0 leaves the relative difference at lambda = 1 undefined: it is
    # null in the report, as its ratio is, and an empty CSV cell, not NaN
    for command in ("s-table", "cone-balance", "identity-checks"):
        assert main([command, "--out", str(tmp_path)]) == 0
        name = f"{command.replace('-', '_')}_report.json"
        json.loads((tmp_path / name).read_text(), parse_constant=_no_constant)
    table = json.loads((tmp_path / "s_table_report.json").read_text())[
        "results"]["table"]
    assert [r["rel_diff_vs_formula"] is None for r in table] \
        == [lam == 1.0 for lam in ExperimentConfig().lambdas]
    rows = (tmp_path / "s_table.csv").read_text().splitlines()
    assert rows[1].startswith("1.0,0.0,") and rows[1].endswith(",")


def test_s_table_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["s-table", "--out", str(out1)]) == 0
    assert main(["s-table", "--out", str(out2)]) == 0
    assert (out1 / "s_table_report.json").read_bytes() \
        == (out2 / "s_table_report.json").read_bytes()


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every node sum runs in einsum's own fixed order, so a second BLAS
    # thread moves no bit of the report
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "wavemaplab.cli", "cone-balance",
                        "--out", str(out)], env=env, check=True,
                       capture_output=True, timeout=300)
        files.append([(out / name).read_bytes() for name in
                      ("cone_balance_report.json", "cone_balance.csv")])
    assert files[0] == files[1]


def test_cone_balance_command_with_config(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text("""
[map]
lam = 1.5
nu = 0.5

[quadrature]
n_time = 8
n_radial = 12
n_polar = 8

[cones]
crossing = 0,0,0 ; 0.4 ; 0, 0.15
control = 0.3,0.3,0 ; 0.2 ; 0, 0.08
""")
    code = main(["cone-balance", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "cone_balance_report.json").read_text())
    assert report["all_passed"]
    bal = report["results"]["cone_0"]["balance"]
    assert bal == pytest.approx(expected_defect(1.5, 0.5, 0.15), rel=1e-4)
    assert abs(report["results"]["cone_1"]["balance"]) < 1e-8


def test_cone_balance_reports_the_violation_below_lambda_one(tmp_path,
                                                            capsys):
    # s(1/2) = -s(2) > 0, so the crossing cone gains energy at the singular
    # line: E(base) - E(top) - Flux < 0 violates the energy inequality
    path = tmp_path / "lam.ini"
    path.write_text("[map]\nlam = 0.5\n")
    main(["cone-balance", "--config", str(path), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "cone_balance_report.json").read_text())
    bal = report["results"]["cone_0"]["balance"]
    assert bal < 0.0
    assert bal == pytest.approx(-0.6 * s_lambda(0.5) * 0.2 / 2.0, rel=1e-6)
    verdicts = {v["name"]: v for v in report["verdicts"]}
    assert verdicts["cone_1_conserved"]["passed"]


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[map]\nfoo = 1\n")
    assert main(["s-table", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_infinite_lambda_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.ini"
    path.write_text("[map]\nlam = inf\n")
    assert main(["cone-balance", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "lambda must be finite and positive, got inf" in err
    assert not (tmp_path / "out").exists()  # no NaN report written


@pytest.mark.parametrize("command", ["s-table", "penalized-run"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_naming_a_file_fails_before_the_command(command, below, tmp_path,
                                                    monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    monkeypatch.setattr("wavemaplab.solver._cauchy_data", _no_sampling)
    assert main([command, "--out", str(taken / below)]) == 2
    assert f"output error: {taken} is not a directory" in \
        capsys.readouterr().err
    assert taken.read_text() == "keep"


def test_write_failure_is_an_output_error(tmp_path, capsys):
    (tmp_path / "s_table.csv").mkdir()  # the CSV cannot be opened for writing
    assert main(["s-table", "--out", str(tmp_path)]) == 2
    assert "output error:" in capsys.readouterr().err
    assert not (tmp_path / "s_table_report.json").exists()


def test_lam_half_example_shows_the_dichotomy(tmp_path):
    # at lambda = 1/2 the analytic map gains energy on the crossing cone and
    # violates the local energy inequality; the penalized solutions keep it
    example = Path(__file__).resolve().parent.parent / "examples/lam_half.ini"
    assert main(["nonuniq-demo", "--config", str(example),
                 "--out", str(tmp_path)]) == 0
    res = json.loads((tmp_path / "nonuniq_demo_report.json").read_text())[
        "results"]
    tol = res["smoothing_tolerance"]
    ana, unpen = res["analytic"], res["solver_unpenalized"]
    assert ana["balance"] < -(tol + ana["error_estimate"])
    assert unpen["balance"] >= -(tol + unpen["error_estimate"])


@pytest.mark.parametrize("k", ["0", "-3"])
def test_refine_below_one_exits_2(k, tmp_path, capsys):
    assert main(["s-table", "--refine", k, "--out", str(tmp_path)]) == 2
    assert f"--refine must be at least 1, got {k}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # no report written


def test_ledger_csv_round_trip(tmp_path):
    path = tmp_path / "coarse.ini"
    path.write_text("[solver]\nh = 0.0625\n")
    # the drift verdict may fail on so coarse a grid; the files are written
    main(["penalized-run", "--config", str(path), "--out", str(tmp_path)])
    rows = (tmp_path / "penalized_run_ledger.csv").read_text().splitlines()
    assert rows[0] == "step,time,kinetic,gradient,penalty,total"
    table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.array_equal(table[:, 0], np.arange(len(table)))
    assert np.array_equal(table[:, 5], table[:, 2] + table[:, 3] + table[:, 4])
    # the stored slab loads back bit for bit, one level per stored level
    report = json.loads((tmp_path / "penalized_run_report.json").read_text())
    back = GridField.load(tmp_path / "penalized_run.npz")
    assert back.data.shape[0] == report["results"]["stored_levels"]
    cfg, _ = load_config(str(path))
    slab, _ = run(cfg.solver_config(penalty_n=cfg.penalties[-1]),
                  BoostedHarmonicMap(cfg.params))
    assert np.array_equal(back.data, slab.data)


def test_constraint_violation_header_names_the_levels_read(tmp_path):
    # 11 stored intervals up to t_end = 0.19 for every penalty: the column
    # for t_end / 2 is read on level 6, at t = 6 * 0.19 / 11
    path = tmp_path / "coarse.ini"
    path.write_text("[solver]\nh = 0.0625\nt_end = 0.19\n"
                    "penalties = 4, 8, 16\n")
    main(["nonuniq-demo", "--config", str(path), "--out", str(tmp_path)])
    rows = (tmp_path / "constraint_violation.csv").read_text().splitlines()
    assert rows[0] == f"n,t={6 * 0.19 / 11:g},t=0.19"
    assert len(rows) == 1 + 3


def test_identity_checks_command(tmp_path, capsys):
    code = main(["identity-checks", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "identity_checks_report.json").read_text())
    assert report["all_passed"]
    for suite in ("polynomial", "plane_wave", "time_bump"):
        assert report["results"][f"transformation_{suite}"]["observed_order"] >= 1.9
    assert report["results"]["identity_refinement"]["observed_order"] >= 1.9
