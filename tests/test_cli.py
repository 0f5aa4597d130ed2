"""Config parsing, subcommand dispatch, artifacts, and exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from artifact_digests import run

from path_excitation import cli, field, sorkin
from path_excitation.cli import echo_config, main, parse_config, run_subcommand
from path_excitation.errors import ParseError, ValidationError
from path_excitation.oracle import EquivalenceReport
from path_excitation.packet import PhysParams, SlitSpec


def read(path):
    return path.read_text()


def lines_of(path):
    return read(path).strip().split("\n")


class TestParseConfig:
    def test_empty_object_gets_documented_defaults(self):
        cfg = parse_config("{}")
        assert cfg.params.hbar == 1.0 and cfg.params.mass == 1.0
        assert [s.center for s in cfg.slits] == [-3.0, 3.0]
        assert all(s.sigma0 == 1.0 and s.drift == 0.0 for s in cfg.slits)
        assert cfg.mask.indices() == (0, 1)
        assert (cfg.grid.x_min, cfg.grid.x_max) == (-15.0, 15.0)
        assert cfg.grid.n_points == 2001 and cfg.grid.t == 2.0
        assert cfg.t0 == 1e-3 and cfg.t1 == 2.0
        assert cfg.dt is None  # error-controlled stepping
        assert cfg.n == 10000 and cfg.bins == 100 and cfg.seed == 0
        assert cfg.node_floor == 1e-12

    def test_negative_sigma_names_the_invariant(self):
        with pytest.raises(ValidationError, match="sigma0 > 0"):
            parse_config('{"slits": [{"center": 0.0, "sigma0": -1.0}]}')

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ParseError, match="unknown key 'hbar_bar'"):
            parse_config('{"hbar_bar": 1.0}')

    def test_unknown_slit_key_rejected(self):
        with pytest.raises(ParseError, match=r"slits\[0\]: unknown key"):
            parse_config('{"slits": [{"center": 0.0, "width": 1.0}]}')

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line 1 column"):
            parse_config("{nope}")

    def test_boolean_is_not_a_number(self):
        with pytest.raises(ParseError, match="hbar"):
            parse_config('{"hbar": true}')

    def test_missing_center_rejected(self):
        with pytest.raises(ParseError, match="missing key 'center'"):
            parse_config('{"slits": [{"sigma0": 1.0}]}')

    def test_mask_duplicate_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config('{"mask": [0, 0]}')

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            parse_config('{"mask": [0, 2]}')

    def test_degenerate_time_window_rejected(self):
        with pytest.raises(ValidationError, match="t1 > t0"):
            parse_config('{"trajectories": {"t0": 2.0, "t1": 2.0}}')

    def test_bad_window_is_reported_before_mistyped_dt(self):
        with pytest.raises(ValidationError, match="t1 > t0"):
            parse_config('{"trajectories": {"t0": 2, "t1": 1, "dt": "x"}}')
        for dt in ('"x"', "false", "[0.1]"):
            with pytest.raises(ParseError, match="trajectories.dt"):
                parse_config('{"trajectories": {"dt": %s}}' % dt)
        with pytest.raises(ValidationError, match="dt > 0"):
            parse_config('{"trajectories": {"dt": -1}}')

    def test_round_trip_default(self):
        cfg = parse_config("{}")
        assert parse_config(echo_config(cfg)) == cfg

    def test_round_trip_custom(self):
        text = json.dumps(
            {
                "hbar": 0.7,
                "mass": 1.3,
                "slits": [
                    {"center": -2.0, "sigma0": 0.8, "drift": 0.1, "weight": 0.9, "phase0": 0.2},
                    {"center": 1.0},
                    {"center": 4.0, "weight": 0.5},
                ],
                "mask": [0, 2],
                "grid": {"xmin": -9.0, "xmax": 11.0, "n": 301, "t": 1.25},
                "trajectories": {"t0": 0.01, "t1": 1.25, "dt": 0.005, "n": 64, "bins": 16, "seed": 9},
                "node_floor": 1e-11,
            }
        )
        cfg = parse_config(text)
        assert parse_config(echo_config(cfg)) == cfg
        assert cfg.mask.indices() == (0, 2)


class TestFieldCommand:
    def test_writes_grid_csv_and_echo(self, tmp_path):
        out = tmp_path / "out"
        status, _ = run("field", {"grid": {"xmin": -5.0, "xmax": 5.0, "n": 21, "t": 1.0}}, out)
        assert status == 0
        rows = lines_of(out / "field.csv")
        assert rows[0] == "x,P_tot,J_tot,v_tot,nodal,R_1,R_2"
        assert len(rows) == 22
        first = rows[1].split(",")
        assert float(first[0]) == -5.0
        echoed = parse_config(read(out / "config_echo.json"))
        assert echoed.grid.n_points == 21

    def test_runs_are_byte_identical(self, tmp_path):
        config = {"grid": {"xmin": -5.0, "xmax": 5.0, "n": 51, "t": 1.3}}
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("field", config, a)[0] == 0
        assert run("field", config, b)[0] == 0
        assert (a / "field.csv").read_bytes() == (b / "field.csv").read_bytes()

    def test_empty_mask_yields_dark_grid(self, tmp_path):
        config = {"mask": [], "grid": {"xmin": -2.0, "xmax": 2.0, "n": 9, "t": 0.5}}
        out = tmp_path / "out"
        assert run("field", config, out)[0] == 0
        rows = lines_of(out / "field.csv")
        assert rows[0] == "x,P_tot,J_tot,v_tot,nodal"
        for row in rows[1:]:
            cells = row.split(",")
            assert float(cells[1]) == 0.0
            assert cells[4] == "1"
        # verify compares that same dark field: every point nodal, no deviation
        assert run("verify", config, out)[0] == 0
        payload = json.loads(read(out / "verify.json"))
        assert payload["n_nodal"] == 9
        assert payload["max_abs_dev_p"] == payload["max_abs_dev_j"] == 0.0
        assert payload["max_rel_dev_v"] == 0.0


class TestVerifyCommand:
    def test_default_config_passes(self, tmp_path):
        status = main(["verify", "--out-dir", str(tmp_path)])
        assert status == 0
        payload = json.loads(read(tmp_path / "verify.json"))
        assert payload["passed"] is True
        assert payload["max_rel_dev_v"] <= 1e-10
        assert payload["max_abs_dev_p"] <= 1e-10 * payload["peak_p"]
        assert payload["max_abs_dev_j"] <= 1e-10 * payload["peak_j"]
        # the measured keys are the report's fields, in field order
        names = [f.name for f in fields(EquivalenceReport)]
        assert list(payload) == names + ["tolerance", "passed", "grid"]
        assert payload["grid"] == {"xmin": -15.0, "xmax": 15.0, "n": 2001, "t": 2.0}

    # v crosses zero on both grids, where a pointwise relative velocity
    # metric divides roundoff by roundoff.
    @pytest.mark.parametrize(
        "config",
        [
            {
                "slits": [{"center": c} for c in (-10.0, -6.0, -2.0, 2.0, 6.0, 10.0)],
                "grid": {"xmin": -40.0, "xmax": 40.0, "n": 100001, "t": 3.0},
            },
            {
                "slits": [{"center": float(c)} for c in range(-14, 15, 4)],
                "grid": {"xmin": -40.0, "xmax": 40.0, "n": 4001, "t": 3.0},
            },
        ],
        ids=["six-slit-fine-grid", "eight-slit"],
    )
    def test_zero_crossing_velocity_passes(self, tmp_path, config):
        out = tmp_path / "out"
        assert run("verify", config, out)[0] == 0
        assert json.loads(read(out / "verify.json"))["max_rel_dev_v"] <= 1e-10

    def test_flipped_diffusive_cross_term_fails(self, tmp_path, monkeypatch):
        # u enters the pairwise field only through the (u_k - u_i) cross
        # term, so negating every diff_velocity flips exactly its sign.
        original = field._pairwise

        def mutant(evals, ws):
            return original([replace(ev, diff_velocity=-ev.diff_velocity) for ev in evals], ws)

        monkeypatch.setattr(field, "_pairwise", mutant)
        assert main(["verify", "--out-dir", str(tmp_path)]) == 3
        assert json.loads(read(tmp_path / "verify.json"))["max_rel_dev_v"] > 1e-2


class TestSorkinCommand:
    def test_three_slit_hierarchy_passes(self, tmp_path):
        config = {
            "slits": [{"center": -6.0}, {"center": 0.0}, {"center": 6.0}],
            "grid": {"xmin": -18.0, "xmax": 18.0, "n": 1201, "t": 2.0},
        }
        out = tmp_path / "out"
        status, _ = run("sorkin", config, out)
        assert status == 0
        payload = json.loads(read(out / "sorkin.json"))
        assert payload["passed"] is True
        assert payload["first_order_violation"] is True
        orders = {o["order"]: o for o in payload["orders"]}
        assert orders[3]["normalized_max"] <= 1e-12
        assert orders[2]["normalized_max"] > 0.1
        assert len(orders[2]["values"]) == 1201

    def test_dead_fringe_returns_tolerance_failure(self, tmp_path):
        # beams too far apart to interfere: the order-2 term is
        # numerically zero, which the report must flag, not hide
        config = {
            "slits": [{"center": -30.0}, {"center": 30.0}],
            "grid": {"xmin": -35.0, "xmax": 35.0, "n": 301, "t": 0.1},
        }
        out = tmp_path / "out"
        status, _ = run("sorkin", config, out)
        assert status == 3
        payload = json.loads(read(out / "sorkin.json"))
        assert payload["passed"] is False
        assert payload["first_order_violation"] is False

    def test_mask_is_ignored(self, tmp_path):
        # the hierarchy opens every subset of the configured slits itself
        masked, full = tmp_path / "masked", tmp_path / "full"
        assert run("sorkin", {"mask": [0]}, masked)[0] == 0
        assert main(["sorkin", "--out-dir", str(full)]) == 0
        assert (masked / "sorkin.json").read_bytes() == (full / "sorkin.json").read_bytes()

    def test_single_slit_is_invalid(self, tmp_path):
        status, err = run("sorkin", {"slits": [{"center": 0.0}]}, tmp_path / "out")
        assert status == 2
        err = json.loads(err)
        assert err["error"] == "ValidationError"
        assert err["message"] == "sorkin requires at least two slits"

    def test_work_budget_rejects_before_evaluating(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an over-budget config reached the evaluation")

        monkeypatch.setattr(sorkin, "open_evals", never)
        config = {"slits": [{"center": 4.0 * k} for k in range(13)], "grid": {"n": 3764}}
        out = tmp_path / "out"
        status, err = run("sorkin", config, out)
        assert status == 2
        err = json.loads(err)
        assert err["error"] == "ValidationError"
        assert err["message"].startswith("slits: 13 slits on 3764 grid points")
        assert not (out / "sorkin.json").exists()

    def test_work_budget_admits_twelve_slits_on_10001_points(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(sorkin, "open_evals", reached)
        slits = [SlitSpec(center=4.0 * k) for k in range(12)]
        with pytest.raises(Reached):
            sorkin.sumrule_report(PhysParams(), slits, field.GridSpec(-40.0, 40.0, 10001, 3.0))


SMALL_TRAJ = {
    "grid": {"xmin": -12.0, "xmax": 12.0, "n": 101, "t": 1.0},
    "trajectories": {"t0": 0.001, "t1": 1.0, "dt": 0.02, "n": 300, "bins": 20, "seed": 4},
}


class TestTrajectoriesCommand:
    def test_writes_histogram_and_streamlines(self, tmp_path):
        out = tmp_path / "out"
        assert run("trajectories", SMALL_TRAJ, out)[0] == 0

        hist = lines_of(out / "histogram.csv")
        assert hist[0] == "bin_left,bin_right,count,density"
        counts = [int(r.split(",")[2]) for r in hist[1:]]
        assert len(counts) == 20
        assert sum(counts) <= 300
        # densities integrate to one over the binned range
        widths = [float(r.split(",")[1]) - float(r.split(",")[0]) for r in hist[1:]]
        dens = [float(r.split(",")[3]) for r in hist[1:]]
        assert sum(w * d for w, d in zip(widths, dens)) == pytest.approx(1.0, abs=1e-12)

        traj = lines_of(out / "trajectories.csv")
        assert traj[0] == "traj_id,t,x"
        ids = {int(r.split(",")[0]) for r in traj[1:]}
        assert ids == set(range(200))  # capped streamline count
        t_first = [float(r.split(",")[1]) for r in traj[1:] if r.split(",")[0] == "0"]
        assert t_first[0] == 0.001
        assert t_first[-1] == 1.0

    def test_seed_override_changes_histogram(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run("trajectories", SMALL_TRAJ, a)
        run("trajectories", SMALL_TRAJ, b)
        # the config run wrote beside a, with the seed overridden
        main(["trajectories", "--config", str(tmp_path / "a.json"), "--out-dir", str(c),
              "--seed", "99"])
        assert (a / "histogram.csv").read_bytes() == (b / "histogram.csv").read_bytes()
        assert (a / "histogram.csv").read_bytes() != (c / "histogram.csv").read_bytes()
        echoed = parse_config(read(c / "config_echo.json"))
        assert echoed.seed == 99

    @pytest.mark.parametrize("sub", ["trajectories", "field"])
    def test_negative_seed_is_validation_exit(self, tmp_path, capsys, sub):
        # numpy's default_rng takes no negative seed; config and --seed are
        # checked before anything is written, whatever the subcommand
        status, err = run(sub, {"trajectories": {"seed": -1}}, tmp_path / "config")
        assert (status, json.loads(err)) == (
            2, {"error": "ValidationError", "message": "trajectories.seed >= 0 violated"}
        )
        out = tmp_path / "flag"
        status = main([sub, "--out-dir", str(out), "--seed", "-1"])
        assert status == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError", "message": "trajectories.seed >= 0 violated"
        }
        assert _artifacts(tmp_path / "config") == {} and _artifacts(out) == {}


class TestPacketCommand:
    def test_dispersion_table(self, tmp_path):
        assert main(["packet", "--out-dir", str(tmp_path)]) == 0
        rows = lines_of(tmp_path / "packet.csv")
        assert rows[0] == "t,sigma,variance"
        assert len(rows) == 202
        t0 = rows[1].split(",")
        assert float(t0[0]) == 0.0 and float(t0[1]) == 1.0
        tN = rows[-1].split(",")
        assert float(tN[0]) == 2.0
        assert float(tN[1]) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def _artifacts(out_dir):
    return {f.name: f.read_bytes() for f in out_dir.iterdir()} if out_dir.is_dir() else {}


@pytest.mark.parametrize(
    "config, status, files",
    [({}, 0, {"config_echo.json", "packet.csv"}), ({"hbar": True}, 2, set())],
)
def test_module_entry_point_matches_main(tmp_path, config, status, files):
    """`python -m path_excitation.cli` exits, writes and reports as main does in-process."""
    code, err = run("packet", config, tmp_path / "main")
    args = ["--config", str(tmp_path / "main.json"), "--out-dir", str(tmp_path / "module")]
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "path_excitation.cli", "packet", *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert code == proc.returncode == status
    assert proc.stderr == err
    assert set(_artifacts(tmp_path / "module")) == files
    assert _artifacts(tmp_path / "module") == _artifacts(tmp_path / "main")


class TestExitCodes:
    def test_unreadable_config_is_validation_exit(self, tmp_path, capsys):
        status = main(["field", "--config", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path)])
        assert status == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert "cannot read config" in err["message"]

    def test_unknown_key_is_validation_exit(self, tmp_path):
        status, err = run("field", '{"wat": 1}', tmp_path / "out")
        assert status == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_runtime_error_exit(self, tmp_path):
        # dark ensemble: sampling has no density to invert
        config = {"slits": [{"center": 0.0, "weight": 0.0}], "trajectories": {"n": 10, "dt": 0.1}}
        status, err = run("trajectories", config, tmp_path / "out")
        assert status == 4
        assert json.loads(err)["error"] == "DegenerateDensity"

    @pytest.mark.parametrize(
        ("config", "message"),
        [
            ({"hbar": 1e150}, "slits[0]: eval_packet cos is not finite at t = 0.001"),
            (
                {"slits": [{"center": 0, "sigma0": 1e154}]},
                "slits[0]: eval_packet amplitude is not finite at t = 0.001",
            ),
            (
                {"slits": [{"center": 0, "sigma0": 1e-160}]},
                "slits[0]: sigma_t is not finite at t = 0.001",
            ),
        ],
        ids=["huge_hbar", "huge_sigma0", "tiny_sigma0"],
    )
    def test_non_finite_sampler_intensity_is_degenerate(self, tmp_path, config, message):
        # finite numbers whose t0 intensity would be NaN on the sampler grid:
        # the domain check rejects them at parse time, before the sampler
        # (test_trajectories covers the sampler's own DegenerateDensity)
        out = tmp_path / "out"
        status, err = run("trajectories", {**config, "trajectories": {"n": 50}}, out)
        assert status == 2
        assert json.loads(err) == {"error": "ValidationError", "message": message}
        assert _artifacts(out) == {}

    @pytest.mark.parametrize(
        ("key", "cap"),
        [("n", cli._MAX_TRAJECTORIES), ("bins", cli._MAX_BINS)],
        ids=["n", "bins"],
    )
    def test_trajectory_cap_exits_before_allocating(self, tmp_path, monkeypatch, key, cap):
        def never(*args, **kwargs):
            raise AssertionError(f"a capped trajectories.{key} reached the ensemble")

        monkeypatch.setattr(cli, "ensemble", never)
        assert getattr(parse_config(json.dumps({"trajectories": {key: cap}})), key) == cap
        out = tmp_path / "out"
        status, err = run("trajectories", {"trajectories": {key: cap + 1}}, out)
        assert status == 2
        err = json.loads(err)
        assert err["error"] == "ValidationError"
        assert err["message"] == f"trajectories.{key} = {cap + 1} exceeds the cap of {cap}"
        assert not (out / "histogram.csv").exists()

    def test_grid_point_cap_exits_before_allocating(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a capped grid.n reached the grid")

        monkeypatch.setattr(field.GridSpec, "points", never)
        cap = cli._MAX_GRID_POINTS
        assert parse_config(json.dumps({"grid": {"n": cap}})).grid.n_points == cap
        out = tmp_path / "out"
        status, err = run("field", {"grid": {"n": cap + 1}}, out)
        assert status == 2
        err = json.loads(err)
        assert err["error"] == "ValidationError"
        assert err["message"] == f"grid.n = {cap + 1} exceeds the cap of {cap}"
        assert not (out / "field.csv").exists()

    def test_tiny_dt_is_validation_exit(self, tmp_path):
        out = tmp_path / "out"
        status, err = run("trajectories", {"trajectories": {"n": 10, "dt": 1e-9}}, out)
        assert status == 2
        err = json.loads(err)
        assert err["error"] == "ValidationError"
        assert "dt" in err["message"] and "100000 steps" in err["message"]
        assert not (out / "histogram.csv").exists()

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ('{"slits": [{"center": NaN}]}', "slits[0].center: expected a number, got NaN"),
            ('{"grid": {"xmin": -1e400}}', "grid.xmin: expected a finite number, got -inf"),
            ('{"node_floor": NaN}', "node_floor: expected a number, got NaN"),
            ('{"mask": [Infinity]}', "mask[0]: expected an integer, got Infinity"),
            ('{"trajectories": {"dt": -Infinity}}', "trajectories.dt: expected a number, got -Infinity"),
            ('{"hbar": 1' + "0" * 400 + "}", "hbar: expected a finite number, got 10000"),
            (
                '{"grid": {"n": 1' + "0" * 4300 + "}}",
                "grid.n: expected an integer, got 100000000000... (4301 characters)",
            ),
        ],
        ids=[
            "nan-center", "overflow-xmin", "nan-node-floor", "inf-mask", "inf-dt", "huge-int",
            "over-long-int",
        ],
    )
    def test_non_finite_number_is_validation_exit(self, tmp_path, text, message):
        # NaN/Infinity literals are not JSON numbers and are reported as
        # written; numbers that overflow a double are not finite; integer
        # literals too long for int() are reported shortened
        out = tmp_path / "out"
        status, err = run("field", text, out)
        assert status == 2
        err = json.loads(err)
        assert err["error"] == "ParseError"
        assert err["message"].startswith(message)
        assert not (out / "field.csv").exists()

    @pytest.mark.parametrize(
        ("sub", "bad", "good", "message"),
        [
            (
                "field", {"slits": [{"center": 0, "sigma0": 1e200}]},
                {"slits": [{"center": 0, "sigma0": 1e153}]},
                "slits[0]: sigma_t is not finite at t = 0.001",
            ),
            (
                "packet", {"slits": [{"center": 0, "sigma0": 1e-200}]},
                {"slits": [{"center": 0, "sigma0": 1e-77}]},
                "slits[0]: sigma_t is not finite at t = 0.001",
            ),
            (
                "verify", {"slits": [{"center": 0, "drift": 1e200}]},
                {"slits": [{"center": 0, "drift": -1e153}]},
                "slits[0]: eval_packet is not finite at t = 0.001",
            ),
            (
                "verify", {"hbar": 1e300}, {"hbar": 1e102},
                "slits[0]: sigma_t is not finite at t = 0.001",
            ),
            (
                "verify", {"mass": 1e-300, "trajectories": {"t1": 3.0}},
                {"mass": 1e-101, "trajectories": {"t1": 3.0}},
                "slits[0]: sigma_t is not finite at t = 0.001",
            ),
        ],
        ids=["sigma0-overflow", "sigma0-underflow", "drift", "hbar", "mass"],
    )
    def test_square_outside_the_double_range_is_validation_exit(
        self, tmp_path, sub, bad, good, message
    ):
        # the packet formulas cannot form these as doubles (a Python-float
        # power raises, or sigma_t overflows), so the domain check rejects
        # them at parse time; each good value is one decade inside the rule
        parse_config(json.dumps(good))
        out = tmp_path / "out"
        status, err = run(sub, bad, out)
        assert status == 2
        assert json.loads(err) == {"error": "ValidationError", "message": message}
        assert _artifacts(out) == {}

    @pytest.mark.parametrize(
        ("config", "error", "message"),
        [
            ([], "ParseError", "top-level value must be an object"),
            ({"grid": []}, "ParseError", "grid: expected an object"),
            (
                {"grid": {"t": -1.0}},
                "ValidationError",
                "grid: t = -1.0 is not at or after the release time 0",
            ),
            ({"hbar": 0}, "ValidationError", "hbar > 0 violated"),
            ({"slits": []}, "ParseError", "slits: expected a non-empty list of objects"),
            ({"mask": 0}, "ParseError", "mask: expected a list of slit indices"),
            ({"trajectories": {"n": 0}}, "ValidationError", "trajectories.n >= 1 violated"),
            ({"trajectories": {"bins": 0}}, "ValidationError", "trajectories.bins >= 1 violated"),
            ({"node_floor": -1e-12}, "ValidationError", "node_floor >= 0 violated"),
            (
                {"grid": {"xmin": -1e308, "xmax": 1e308, "n": 5}},
                "ValidationError",
                "grid: x_min and x_max must be finite, and so must x_max - x_min",
            ),
            ({"mask": [3, 5]}, "ValidationError", "mask index 5 out of range for 2 slits"),
            (
                {"mask": [-1]},
                "ValidationError",
                "mask indices must be non-negative whole numbers",
            ),
        ],
        ids=[
            "top-level", "grid", "grid-t", "hbar", "slits", "mask", "n", "bins", "node-floor",
            "grid-span", "mask-largest", "mask-negative",
        ],
    )
    def test_rejected_value_names_its_key(self, tmp_path, config, error, message):
        out = tmp_path / "out"
        status, err = run("field", config, out)
        assert status == 2
        assert json.loads(err) == {"error": error, "message": message}
        assert _artifacts(out) == {}

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_name_rejected(self):
        with pytest.raises(ValueError, match="unknown subcommand"):
            run_subcommand("render", parse_config("{}"), ".")


class TestWriters:
    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, -2.5]

    @pytest.mark.parametrize(
        "n_rows", [1, cli._BLOCK, cli._BLOCK + 1], ids=["one", "block", "block+1"]
    )
    def test_csv_matches_per_value_formatting(self, tmp_path, n_rows):
        floats = np.resize(np.array(self.SPECIAL), n_rows)
        negated = -floats[::-1]
        ints = np.arange(n_rows) % 7
        flags = ints % 2 == 0
        path = tmp_path / "out.csv"
        cli._write_csv(str(path), "a,b,c,d", [[floats, ints, negated, flags]])
        rows = [
            f"{float(a):.17g},{int(b)},{float(c):.17g},{int(d)}"
            for a, b, c, d in zip(floats, ints, negated, flags)
        ]
        assert path.read_bytes() == ("a,b,c,d\n" + "".join(r + "\n" for r in rows)).encode()

    def test_csv_blocks_write_the_bytes_of_one_block(self, tmp_path):
        n_rows = 3 * cli._BLOCK + 5
        floats = np.resize(np.array(self.SPECIAL), n_rows)
        flags = np.arange(n_rows) % 3 == 0
        whole, ragged = tmp_path / "whole.csv", tmp_path / "ragged.csv"
        cli._write_csv(str(whole), "a,b", [[floats, flags]])
        cuts = [0, 1, 1, cli._BLOCK + 3, 2 * cli._BLOCK, n_rows]
        blocks = ([floats[a:b], flags[a:b]] for a, b in zip(cuts, cuts[1:]))
        cli._write_csv(str(ragged), "a,b", blocks)
        assert ragged.read_bytes() == whole.read_bytes()

    def test_sorkin_json_matches_indenting_encoder(self, tmp_path):
        values = [np.array(self.SPECIAL), np.array([np.inf, 1.0, 2.0])]
        payload = {
            "scale": 1.5,
            "first_order_violation": True,
            "tolerance": 1e-12,
            "passed": False,
            "orders": [
                {"order": k + 2, "max_abs": np.nan, "normalized_max": np.inf, "values": v}
                for k, v in enumerate(values)
            ],
        }
        path = tmp_path / "sorkin.json"
        cli._write_sorkin(str(path), payload)
        for order, v in zip(payload["orders"], values):
            order["values"] = [float(x) for x in v]
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"

    # Chunk 0: 0.0 beside -0.0, NaN of both signs, repeats, and last the
    # value that fills chunk 1, so it straddles the boundary; then a
    # 1-value tail.
    EDGES = np.concatenate([
        np.resize(np.array([0.0, *SPECIAL, -np.nan]), cli._BLOCK - 1),
        np.full(cli._BLOCK + 1, 1.0 / 3.0),
        [-0.0],
    ])

    @pytest.mark.parametrize(
        "values",
        [
            np.resize(np.array(SPECIAL), cli._BLOCK),
            np.resize(np.array(SPECIAL), 2 * cli._BLOCK + 1),
            EDGES,
        ],
        ids=["block", "2block+1", "edges"],
    )
    def test_sorkin_json_chunks_match_indenting_encoder(self, tmp_path, values):
        payload = {"scale": 1.0, "orders": [{"order": 2, "values": values}]}
        path = tmp_path / "sorkin.json"
        cli._write_sorkin(str(path), payload)
        payload["orders"][0]["values"] = [float(x) for x in values]
        assert path.read_text().split("\n") == (json.dumps(payload, indent=2) + "\n").split("\n")

    def test_sorkin_json_of_a_report_matches_indenting_encoder(self, tmp_path):
        # Asymmetric slits on a ragged multi-chunk grid: orders 3 and 4
        # are roundoff, repeated within and across chunks.
        slits = [
            SlitSpec(center=-4.5, sigma0=0.8, drift=0.3, weight=1.0, phase0=0.0),
            SlitSpec(center=-1.0, sigma0=1.1, drift=-0.2, weight=0.7, phase0=0.9),
            SlitSpec(center=2.0, sigma0=0.9, drift=0.1, weight=1.3, phase0=-2.1),
            SlitSpec(center=5.5, sigma0=1.2, drift=0.0, weight=0.5, phase0=0.4),
        ]
        grid = field.GridSpec(-12.0, 14.0, 2 * cli._BLOCK + 17, 1.5)
        reports = sorkin.sumrule_report(PhysParams(), slits, grid)
        payload = {"scale": reports[0].scale, "orders": [
            {"order": r.order, "max_abs": r.max_abs, "values": r.values} for r in reports
        ]}
        path = tmp_path / "sorkin.json"
        cli._write_sorkin(str(path), payload)
        for order in payload["orders"]:
            order["values"] = order["values"].tolist()
        assert path.read_text().split("\n") == (json.dumps(payload, indent=2) + "\n").split("\n")
