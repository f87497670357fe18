import csv
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import CATALOG_IDS, make_problem
from convexcauchy import harness
from convexcauchy.catalog import CASES
from convexcauchy.cli import main
from convexcauchy.errors import ConfigError
from convexcauchy.functional import beta_window, data_extension, evaluate
from convexcauchy.grid import Label, LevelSpec, build_grid, classify_nodes, level_values
from convexcauchy.harness import (
    ProblemSetup,
    add_noise,
    build_setup,
    emit_report,
    error_norms,
    field_table,
    load_problem,
)
from convexcauchy.optimizer import run
from convexcauchy.sobolev import SobolevSpace


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def _evaluate(expr, points, time_axis):
    """An expression's values on points, through the function made from
    its checked tree (harness._expr_fn)."""
    return harness._expr_fn(expr, time_axis)(points)


def minimal_config(**overrides):
    cfg = {"case": "ELL2D-HARMONIC", "grid": {"resolution": [17, 17]}}
    cfg.update(overrides)
    return cfg


class TestLoadProblem:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(minimal_config()))
        setup = load_problem(path)
        assert setup.config["case"] == "ELL2D-HARMONIC"
        assert setup.space.order == 3
        assert setup.config["functional"]["order"] == 3
        assert setup.config["level"]["nu"] == 1.0

    def test_set_up_reads_the_params_own_parts(self):
        """The set-up keeps the params alone; its grid, mask and space are the
        params' own, the space of the configured order."""
        setup = build_setup(minimal_config(functional={"order": 2}))
        assert {f.name for f in fields(ProblemSetup)}.isdisjoint({"grid", "mask", "space"})
        assert setup.params.order == 2 and setup.config["functional"]["order"] == 2
        assert setup.space is setup.params.space and setup.space.order == 2
        assert setup.mask is setup.params.mask and setup.grid is setup.params.mask.grid

    def test_beta_clamped_with_warning(self, tmp_path, caplog):
        import logging

        path = tmp_path / "p.json"
        path.write_text(json.dumps(minimal_config(
            functional={"beta": 2.0, "beta_policy": "clamp"})))
        with caplog.at_level(logging.WARNING, logger="convexcauchy.functional"):
            setup = load_problem(path)
        lo, hi = beta_window(setup.params.lam, setup.mask.epsilon)
        assert lo < setup.params.beta < hi
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_unknown_case_id(self):
        with pytest.raises(ConfigError, match="BOGUS"):
            build_setup({"case": "BOGUS"})

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="mystery"):
            build_setup(minimal_config(mystery=1))

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"case": "ELL2D-HARMONIC",\n  broken\n}')
        with pytest.raises(ConfigError, match="line"):
            load_problem(path)

    def test_family_dimension_consistency(self):
        with pytest.raises(ConfigError, match="axes"):
            build_setup({"case": "ELL1D-CUBIC", "grid": {"resolution": [9, 9],
                                                         "bounds": [[0, 1], [0, 1]]}})

    def test_custom_operator_expressions(self):
        cfg = {
            "family": "elliptic",
            "grid": {"bounds": [[0.0, 1.0], [-1.0, 1.0]], "resolution": [17, 17]},
            "level": {"a": 0.25, "c": 0.48, "nu": 1.0, "x_width": 1.0},
            "operator": {"id": "cubic", "q": "(x0**2 - x1**2 + 3)**3"},
            "weight": {"lambda": 2.0},
            "functional": {"beta": 1e-3, "beta_policy": "keep"},
            "data": {"file": "unused"},
        }
        # data file is required when no case is named; build only the operator path
        cfg.pop("data")
        with pytest.raises(ConfigError, match="case id or a data file"):
            build_setup(cfg)

    def test_large_source_loads(self):
        """A source of size 1e8 loads: the built-in lower-order terms carry
        their partials, and no finite-difference probe second-guesses them."""
        setup = build_setup({"case": "ELL2D-CUBIC", "operator": {"id": "cubic", "q": "1e8"}})
        assert setup.params.op.lower.kind == "cubic"

    def test_generic_level_expression(self):
        cfg = {
            "case": "ELL2D-HARMONIC",
            "family": "generic",
            "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "resolution": [17, 17]},
            "level": {"c": 0.3, "epsilon": 0.05, "xi": "1 - x0"},
            "operator": {"id": "linear"},
        }
        setup = build_setup(cfg)
        assert setup.mask.level.family == "generic"
        assert setup.mask.counts["cauchy_boundary"] > 0


class TestConfigEcho:
    """The config echoed into report.json rebuilds the same problem."""

    @staticmethod
    def _reload(cfg):
        setup = build_setup(cfg)
        echo = json.loads(json.dumps(setup.config))  # as report.json holds it
        again = build_setup(echo)
        assert json.loads(json.dumps(again.config)) == echo
        assert np.array_equal(again.mask.dofs, setup.mask.dofs)
        assert np.array_equal(again.mask.dof_label, setup.mask.dof_label)
        v = data_extension(setup.space, setup.params.data)
        assert evaluate(again.params, v) == evaluate(setup.params, v)
        return echo

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_shipped_config(self, name):
        cfg = json.loads((CONFIG_DIR / name).read_text())
        echo = self._reload(cfg)
        # the case's operator, source term included, with the table's defaults
        assert echo["operator"] == {"q": "0", "b": "1", **CASES[cfg["case"]]["operator"]}
        assert "family" not in echo["level"]

    @pytest.mark.parametrize("case_id", CATALOG_IDS)
    def test_case(self, case_id):
        echo = self._reload({"case": case_id})
        assert echo["family"] == CASES[case_id]["family"]

    @pytest.mark.parametrize("workload", ["solve-ell2d-257", "sweep-ell2d-129",
                                          "direct-ell3d-65"])
    def test_bench_workload_config(self, tmp_path, workload):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", CONFIG_DIR.parent / "bench" / "workloads.py")
        workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
        spec.loader.exec_module(workloads)
        inputs = workloads.generate(workload, 1, tmp_path)
        echo = self._reload(json.loads(inputs.config.read_text()))
        assert echo["data"]["file"] == str(tmp_path / "trace.csv")

    def test_csv_data_custom_operator(self, tmp_path):
        bounds, resolution = [[0.0, 0.9], [-0.7, 0.7]], [19, 15]
        level = {"a": 0.2, "c": 0.45, "nu": 1.0, "x_width": 0.9}
        grid = build_grid(bounds, resolution)
        mask = classify_nodes(grid, LevelSpec(family="elliptic", **level))
        pts = grid.coords()
        vals = (pts[..., 0] ** 2 - pts[..., 1] ** 2 + 3.0).ravel()
        rows = ["layer,index,value"]
        for layer, nodes in (("g0", mask.value_layer), ("g1", mask.deriv_layer)):
            rows += [f"{layer},{i},{float(vals[i])!r}" for i in np.flatnonzero(nodes.ravel())]
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join(rows) + "\n")
        cfg = {
            "family": "elliptic",
            "grid": {"bounds": bounds, "resolution": resolution},
            "level": level,
            "operator": {"id": "cubic", "q": "(x0**2 - x1**2 + 3)**3"},
            "functional": {"beta": 0.3, "beta_policy": "keep"},
            "data": {"file": str(trace)},
        }
        echo = self._reload(cfg)
        # the converted section: the given keys, then the defaults of the rest
        assert echo["operator"] == {**cfg["operator"], "b": "1"}
        assert echo["data"]["file"] == str(trace)
        assert echo["grid"]["bounds"] == bounds
        assert "case" not in echo

    def test_generic_level(self):
        cfg = {
            "case": "ELL2D-HARMONIC",
            "family": "generic",
            "grid": {"bounds": [[0.0, 0.9], [0.0, 0.7]], "resolution": [19, 13]},
            "level": {"c": 0.3, "epsilon": 0.05, "xi": "1 - x0 + 0.1*sin(3*x1)"},
            "operator": {"id": "linear"},
            "functional": {"beta": 2.0},  # clamped into the window
        }
        echo = self._reload(cfg)
        assert echo["level"]["xi"] == cfg["level"]["xi"]
        setup = build_setup(cfg)
        assert setup.beta["requested"] == 2.0
        assert echo["functional"] == {"beta": setup.beta["effective"],
                                      "beta_policy": "clamp", "order": 3}
        lo, hi = setup.beta["window"]
        assert lo < setup.beta["effective"] < hi


class TestManufactured:
    @pytest.mark.parametrize("case_id,tol", [
        ("ELL1D-CUBIC", 1e-10),
        ("PAR1D-CUBIC", 1e-9),
        ("HYP1D-QUAD", 1e-10),
        ("ELL2D-CUBIC", 1e-9),
    ])
    def test_residual_machine_zero(self, case_id, tol):
        case, grid, mask, op, space, params, u_star = make_problem(case_id)
        r = params.stencil.residual(u_star)
        assert np.max(np.abs(r)) < tol

    def test_harmonic_residual_second_order(self):
        """Interior residual of the smooth case drops about 4x per refinement."""
        norms = []
        for res in (33, 65, 129):
            setup = build_setup({"case": "ELL2D-HARMONIC", "grid": {"resolution": [res, res]}})
            norms.append(np.max(np.abs(setup.params.stencil.residual(setup.u_star))))
        assert norms[0] / norms[1] > 3.0
        assert norms[1] / norms[2] > 3.0

    def test_trace_data_on_layers(self):
        """u* is the case's expression on the DOFs, and the trace data is u*
        on the nodes of the two layers, in C order."""
        case, grid, mask, op, space, params, u_star = make_problem("ELL2D-HARMONIC")
        full = _evaluate(case["u_star"], grid.coords(), time_axis=False)
        assert np.array_equal(u_star, mask.gather(full))
        assert np.array_equal(params.data.g0, full[mask.value_layer])
        assert np.array_equal(params.data.g1, full[mask.deriv_layer])

    def test_family_mismatch(self):
        with pytest.raises(ConfigError, match="config field family: .* parabolic, not elliptic"):
            build_setup({"case": "PAR1D-CUBIC", "family": "elliptic"})


class TestDataFile:
    def test_csv_trace_round_trip(self, tmp_path):
        """A CSV trace file reproduces the manufactured data it was dumped from."""
        case, grid, mask, op, space, params, u_star = make_problem("ELL2D-HARMONIC",
                                                                   resolution=(17, 17))
        rows = ["layer,index,value"]
        for flat, value in zip(np.flatnonzero(mask.value_layer.ravel()), params.data.g0):
            rows.append(f"g0,{flat},{float(value)!r}")
        for flat, value in zip(np.flatnonzero(mask.deriv_layer.ravel()), params.data.g1):
            rows.append(f"g1,{flat},{float(value)!r}")
        data_file = tmp_path / "trace.csv"
        data_file.write_text("\n".join(rows) + "\n")

        cfg = {
            "case": "ELL2D-HARMONIC",
            "grid": {"resolution": [17, 17]},
            "data": {"file": str(data_file)},
            "functional": {"beta_policy": "keep"},
        }
        setup = build_setup(cfg)
        assert np.array_equal(setup.params.data.g0, params.data.g0)
        assert np.array_equal(setup.params.data.g1, params.data.g1)

    @staticmethod
    def _certify_csv(tmp_path, rows):
        """Exit code of `certify` on ELL2D-HARMONIC at 17^2 with a trace CSV
        made of the exact trace rows transformed by `rows`."""
        _, grid, mask, _, _, params, _ = make_problem("ELL2D-HARMONIC", resolution=(17, 17))
        exact = [("g0", flat, value) for flat, value
                 in zip(np.flatnonzero(mask.value_layer.ravel()), params.data.g0)]
        exact += [("g1", flat, value) for flat, value
                  in zip(np.flatnonzero(mask.deriv_layer.ravel()), params.data.g1)]
        lines = ["layer,index,value"] + [f"{a},{b},{float(c)!r}" for a, b, c in rows(exact)]
        data_file = tmp_path / "trace.csv"
        data_file.write_text("\n".join(lines) + "\n")
        cfg = {"case": "ELL2D-HARMONIC", "grid": {"resolution": [17, 17]},
               "data": {"file": str(data_file)},
               "certificate": {"samples": 2, "radius": 150.0, "seed": 1},
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        return main(["certify", str(path)])

    def test_csv_index_past_end_exits_one(self, tmp_path, caplog):
        assert self._certify_csv(tmp_path, lambda r: r + [("g0", 99999999, 1.0)]) == 1
        assert "index 99999999" in caplog.text

    def test_csv_negative_index_exits_one(self, tmp_path, caplog):
        assert self._certify_csv(tmp_path, lambda r: r + [("g1", -1, 1.0)]) == 1
        assert "index -1" in caplog.text

    def test_csv_unknown_layer_exits_one(self, tmp_path, caplog):
        assert self._certify_csv(
            tmp_path, lambda r: [("g2" if a == "g1" else a, b, c) for a, b, c in r]) == 1
        assert "'g2'" in caplog.text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_non_finite_value_exits_one(self, tmp_path, caplog, value):
        """A value that is not finite is refused where it is read, naming its
        file and line (line 2 is the first row after the header)."""
        assert self._certify_csv(tmp_path, lambda r: [(r[0][0], r[0][1], float(value))]
                                 + r[1:]) == 1
        assert (f"data file {tmp_path / 'trace.csv'}, line 2: value '{value}' is not finite"
                in caplog.text)

    def test_csv_conflicting_rows_exit_one(self, tmp_path, caplog):
        """Two rows that give one node different values on one layer are
        refused, naming the file, the layer, the node and both lines, however
        close the values (a data set that loads with either one certifies)."""
        seen = {}

        def conflict(rows):
            layer, flat, value = seen["row"] = rows[3]
            seen["line"] = len(rows) + 2
            return rows + [(layer, flat, value + 1e-9)]

        assert self._certify_csv(tmp_path, conflict) == 1
        layer, flat, value = seen["row"]
        assert (f"data file {tmp_path / 'trace.csv'}: layer {layer} gives node {flat} the value "
                f"{float(value)!r} on line 5 and {float(value) + 1e-9!r} on line {seen['line']}"
                in caplog.text)

    def test_csv_repeated_row_is_accepted(self, tmp_path):
        """A row given twice with the same value loads as given once."""
        assert self._certify_csv(tmp_path, lambda rows: rows + rows[3:5]) == 0

    def test_csv_header_only_exits_one(self, tmp_path, caplog):
        assert self._certify_csv(tmp_path, lambda r: []) == 1
        assert "nodes of its trace layer" in caplog.text

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("layer,index,value\ng0,notanint,1.0\n")
        cfg = {"case": "ELL2D-HARMONIC", "grid": {"resolution": [17, 17]},
               "data": {"file": str(bad)}}
        with pytest.raises(ConfigError, match="malformed"):
            build_setup(cfg)


def _six_space_errors(setup, u):
    """error_norms with a Sobolev space of its own per norm and region: L2
    from the order-1 space's quadrature weights, H1 and H^k from their norms."""
    mask, star = setup.mask, setup.u_star
    diff = u - star
    ell = level_values(mask.level, mask.grid.open_coords())
    window = np.flatnonzero((mask.in_mask & (ell > mask.theta + 2 * mask.epsilon))[mask.in_mask])
    out = {}
    for region, subset in (("subdomain", None), ("inner", window)):
        for name, order in (("l2", None), ("h1", 1), ("hk", setup.space.order)):
            space = SobolevSpace(mask, order=order if order else 1, node_subset=subset)
            if order is None:
                weights = mask.gather(space.weights)
                num = float(np.sqrt(np.sum(diff**2 * weights)))
                den = float(np.sqrt(np.sum(star**2 * weights)))
            else:
                num, den = space.norm(diff), space.norm(star)
            out[f"{name}_{region}"] = num / den if den > 0 else float("nan")
    return out


class TestErrorNorms:
    @pytest.mark.parametrize("cfg", [
        json.loads((CONFIG_DIR / "ell2d_cubic_solve.json").read_text()),
        json.loads((CONFIG_DIR / "ell2d_harmonic_reconstruct.json").read_text()),
    ] + [{"case": case_id} for case_id in CATALOG_IDS],
        ids=["ell2d_cubic_solve", "ell2d_harmonic_reconstruct"] + CATALOG_IDS)
    def test_equal_to_one_space_per_norm(self, cfg):
        """L2 and H1 read off the H^k space's leading monomials are the norms
        of their own spaces, bit for bit."""
        setup = build_setup(cfg)
        u = data_extension(setup.space, setup.params.data)
        assert error_norms(setup, u) == _six_space_errors(setup, u)


class TestNoise:
    def test_zero_level_identity(self, rng):
        g0 = rng.standard_normal(10)
        g1 = rng.standard_normal(7)
        out0, out1 = add_noise(g0, g1, 0.0, 123)
        assert out0 is g0 and out1 is g1

    def test_deterministic(self, rng):
        g0 = rng.standard_normal(10)
        g1 = rng.standard_normal(7)
        a = add_noise(g0, g1, 0.05, 7)
        b = add_noise(g0, g1, 0.05, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = add_noise(g0, g1, 0.05, 8)
        assert not np.array_equal(a[0], c[0])

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigError):
            add_noise(np.ones(3), np.ones(3), -0.1, 0)

    def test_rms_calibration(self, rng):
        """Over many draws the perturbation rms tracks level * rms(data)."""
        g0 = rng.standard_normal(400) * 2.0
        g1 = rng.standard_normal(400) * 2.0
        rms = np.sqrt(np.mean(np.concatenate([g0, g1]) ** 2))
        ratios = []
        for seed in range(1000):
            n0, n1 = add_noise(g0, g1, 0.01, seed)
            pert = np.concatenate([n0 - g0, n1 - g1])
            ratios.append(np.sqrt(np.mean(pert**2)) / rms)
        assert 0.008 <= np.mean(ratios) <= 0.012


class TestEmitReport:
    def test_files_written(self, tmp_path):
        report = {
            "command": "solve",
            "timestamp": "2026-01-01T00:00:00",
            "history": {"iter": [0, 1], "j": [1.0, 0.5], "grad_norm": [0.5, ""]},
            "field": {"x0": [0.0], "x1": [0.0], "label": ["interior"], "u": [1.0]},
            "value": 42,
        }
        files = emit_report(report, tmp_path)
        names = {f.name for f in files}
        assert names == {"report.json", "history.csv", "field.csv"}
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["schema_version"] == "1"
        assert loaded["value"] == 42
        assert "history" not in loaded
        assert ((tmp_path / "history.csv").read_bytes()
                == b"iter,j,grad_norm\r\n0,1.0,0.5\r\n1,0.5,\r\n")
        assert (tmp_path / "field.csv").read_bytes() == b"x0,x1,label,u\r\n0.0,0.0,interior,1.0\r\n"

    def test_field_rows_count_masked_nodes(self, tmp_path):
        cfg = minimal_config(solver="direct", output_dir=str(tmp_path / "out"))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 0
        with open(tmp_path / "out" / "field.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        setup = load_problem(path)
        assert len(rows) == setup.mask.dofs.size

    @pytest.mark.parametrize("with_u_star", [True, False])
    def test_field_table_matches_node_loop(self, with_u_star):
        """The columns of the field table hold the per-node construction it
        replaced, value for value and in column order (so field.csv keeps
        its bytes)."""
        setup = build_setup(minimal_config())
        if not with_u_star:
            setup.u_star = None
        u = data_extension(setup.space, setup.params.data)
        coords, rows = setup.grid.coords(), []
        for k, flat in enumerate(setup.mask.dofs):
            idx = np.unravel_index(flat, setup.grid.shape)
            row = {f"x{j}": float(coords[idx + (j,)]) for j in range(setup.grid.dim)}
            row["label"] = Label(int(setup.mask.scatter(setup.mask.dof_label)[idx])).name.lower()
            row["u"] = float(u[k])
            if setup.u_star is not None:
                row["u_star"] = float(setup.u_star[k])
                row["abs_err"] = abs(row["u"] - row["u_star"])
            rows.append(row)
        table = field_table(setup, u)
        assert list(table) == list(rows[0])  # column order
        assert [dict(zip(table, row)) for row in zip(*table.values())] == rows

    def test_deterministic_report(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = minimal_config(solver="direct", output_dir=str(tmp_path / name))
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            assert main(["solve", str(path)]) == 0
            data = json.loads((tmp_path / name / "report.json").read_text())
            data.pop("timestamp")
            data["run"].pop("wall_time")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]


class TestExpressions:
    def test_basic_evaluation(self):
        pts = np.array([[0.5, 2.0], [1.0, -1.0]])
        out = _evaluate("x0**2 + sin(x1)", pts, time_axis=False)
        assert out[0] == pytest.approx(0.25 + np.sin(2.0))

    def test_time_alias(self):
        pts = np.array([[0.5, 2.0]])
        out = _evaluate("t", pts, time_axis=True)
        assert out[0] == 2.0

    def test_bad_expression(self):
        with pytest.raises(ConfigError, match="cannot evaluate"):
            _evaluate("import os", np.zeros((1, 2)), time_axis=False)

    def test_constant_broadcast(self):
        out = _evaluate("3.5", np.zeros((4, 2)), time_axis=False)
        assert out.shape == (4,)
        assert np.all(out == 3.5)

    def test_config_expressions_exact(self):
        pts = build_grid([[0.0, 1.0], [-1.0, 1.0]], [17, 17]).coords()
        x, y = pts[..., 0], pts[..., 1]
        cases = {
            "(x0**2 - x1**2 + 3)**3": (x**2 - y**2 + 3) ** 3,
            "(3 + 0.7*(x0**2 - x1**2) + -0.2*x0*x1 + 0.1*x0 + 0.3*x1)**3":
                (3 + 0.7 * (x**2 - y**2) + -0.2 * x * y + 0.1 * x + 0.3 * y) ** 3,
            "1 - x0": 1 - x,
            "-x0**2 / 2 + 2**-1 * x1": -x**2 / 2 + 2**-1 * y,
            "exp(x0) * cos(pi * x1) + sqrt(abs(x1)) - log(1 + x0**2) + tan(x0 / 3)":
                np.exp(x) * np.cos(np.pi * y) + np.sqrt(np.abs(y)) - np.log(1 + x**2)
                + np.tan(x / 3),
            "tanh(x1) / cosh(x0) + sinh(e * x1)":
                np.tanh(y) / np.cosh(x) + np.sinh(np.e * y),
        }
        for expr, want in cases.items():
            assert np.array_equal(_evaluate(expr, pts, time_axis=False), want), expr

    def test_power_tower_exits_one_within_seconds(self, tmp_path):
        """Literals evaluate as floats, so 9**9**9 overflows at once instead
        of building an integer of some 370 million digits."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps(minimal_config(
            solver="direct", output_dir=str(tmp_path / "out"),
            operator={"id": "source", "q": "9**9**9"})))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "convexcauchy", "solve", str(path)],
                              env=env, capture_output=True, text=True, timeout=20)
        assert done.returncode == 1
        assert "config error" in done.stderr and "9**9**9" in done.stderr
        assert not (tmp_path / "out").exists()

    def test_nesting_the_check_takes_is_a_config_error_deeper_down(self):
        """An expression nested just under the limit of the check can still
        overflow the stack where it is evaluated: deeper in the call chain
        (985 unary minus signs before x0 ended `certify` on ELL2D-CUBIC at
        17^2 in a RecursionError), or through function calls, whose
        arguments the evaluation reads in a comprehension. At any depth it
        gives its value or the check's ConfigError, never a RecursionError."""
        def text(n):
            return "abs(-" * 150 + "-" * n + "x0" + ")" * 150

        def accepted(expr):
            try:
                return harness._parse_expression(expr) is not None
            except ConfigError:
                return False

        def deeper(frames, call):
            return call() if frames == 0 else deeper(frames - 1, call)

        depth = next(n for n in range(sys.getrecursionlimit(), 0, -10) if accepted(text(n)))
        fn, pts = harness._expr_fn(text(depth), time_axis=False), np.zeros((3, 2))
        too_deep = 0
        for frames in range(60):
            try:
                deeper(frames, lambda: fn(pts))
            except ConfigError as exc:
                assert "nested too deeply" in str(exc)
                too_deep += 1
        assert too_deep > 0

    @pytest.mark.parametrize("expr", [
        "x0.real",                                 # attribute
        "().__class__.__base__.__subclasses__()",  # attribute chain
        "x0[...]",                                 # subscript
        "[x0 for _ in (1,)][0]",                   # comprehension
        "(lambda: x0)()",                          # lambda
        "sin(x0, out=None)",                       # keyword call
        "os",                                      # unknown name
        "__import__",                              # unknown name
        "x7",                                      # unknown coordinate
    ])
    def test_disallowed_expression_exits_one(self, tmp_path, caplog, expr):
        cfg = minimal_config(solver="direct", output_dir=str(tmp_path / "out"),
                             operator={"id": "source", "q": expr})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 1
        assert "config error" in caplog.text
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _certify_q(tmp_path, q) -> int:
        """certify on ELL2D-CUBIC at 17^2 with the source term q."""
        return main(["certify", str(_sweep_config(
            tmp_path, grid={"resolution": [17, 17]}, operator={"id": "cubic", "q": q}))])

    def test_expression_not_finite_where_it_is_evaluated_names_its_field(self, tmp_path,
                                                                         caplog):
        """The load check only parses q; certify evaluates it when it builds
        the operator stencil, and that error names the field too."""
        assert self._certify_q(tmp_path, "(x0 + 1e308 * 10)") == 1
        assert ("config field operator.q: expression '(x0 + 1e308 * 10)' is not finite "
                "at every point") in caplog.text

    def test_expression_too_deep_where_it_is_evaluated_names_its_field(self, tmp_path, caplog,
                                                                       monkeypatch):
        """The deepest q that the load check takes (985 unary minus signs
        from the command line) overflows the stack where certify evaluates
        it, deeper in the call chain, and that error names the field too."""
        classify, loaded = harness.classify_nodes, []

        def classify_after_load(*args, **kwargs):
            loaded.append(True)
            return classify(*args, **kwargs)

        monkeypatch.setattr(harness, "classify_nodes", classify_after_load)
        for n in range(sys.getrecursionlimit(), 0, -1):  # the load check rejects the first
            caplog.clear()
            rc = self._certify_q(tmp_path, "-" * n + "x0")
            if loaded:
                break
        assert rc == 1
        assert "config field operator.q: expression '-----" in caplog.text
        assert "is nested too deeply" in caplog.text


def _sweep_config(tmp_path, **overrides) -> Path:
    """A three-sample ELL2D-CUBIC certificate config, written to tmp_path; an
    override merges into its section, or replaces a value that is no object."""
    cfg = {
        "case": "ELL2D-CUBIC",
        "functional": {"beta": 1e-3, "beta_policy": "keep"},
        "certificate": {"samples": 3, "radius": 5.0, "seed": 3},
        "output_dir": str(tmp_path / "out"),
    }
    for section, value in overrides.items():
        cfg[section] = {**cfg.get(section, {}), **value} if isinstance(value, dict) else value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    return path


# (section, key, value) of malformed config values that used to run with a
# wrong meaning, fail late, crash with a traceback or pass without a word; each
# must exit 1 with "config field <section>.<key>: ..." before any output
MALFORMED_VALUES = [
    # line-search keys, now unknown: "no Armijo decrease after 0 halvings",
    # a backtracking that grew the step, a negative Armijo constant
    ("optimizer", "max_halvings", 0),
    ("optimizer", "shrink", 2.0),
    ("optimizer", "armijo_c", -1),
    ("optimizer", "store_iterates", "no"),
    ("certificate", "samples", 2.5),        # ran 2 samples
    ("certificate", "samples", True),       # ran 1 sample
    ("grid", "resolution", [33.5, 33]),
    ("weight", "lambda", True),
    ("functional", "beta", float("nan")),   # the certificate passed with NaN margins
    # tracebacks
    ("certificate", "samples", "x"),
    ("certificate", "seed", -1),
    ("certificate", "radius", None),
    ("data", "noise_seed", -3),
    ("data", "file", 5),
    ("functional", "beta", "0.5x"),
    ("functional", "beta", None),
    ("optimizer", "max_iters", "ten"),
    ("optimizer", "max_iters", 3.7),
    ("optimizer", "radius", None),
    ("optimizer", "grad_tol", "1e-6"),
    ("grid", "bounds", [[0], [0, 1]]),
    ("grid", "bounds", 5),
    ("level", "x0", 5),
    ("level", "epsilon", "x"),
    ("level", "nu", None),
    ("level", "c", [0.45]),
    # bounds of the principal part, now unknown: it is measured at the core nodes
    ("operator", "mu", [1]),
    ("operator", "a_bounds", 5),
    ("weight", "lambda", None),
    (None, "output_dir", 5),
    # accepted without a word
    ("certificate", "radius", "5"),
    ("certificate", "lambdas", [True]),
    ("functional", "order", 2.5),
    ("functional", "order", "3"),
    ("optimizer", "gamma", None),
    ("level", "a", "0.25"),
    ("level", "xi", 5),
    ("operator", "q", 5),
    ("weight", "lambda", "2"),
]


# (id, overrides, message) of values that each key's table accepts but that
# fail a check across keys; each must exit 1 with "config field <section>: ..."
# or, where one key is at fault, "config field <section>.<key>: ..."
CROSS_KEY_VALUES = [
    ("operator.q=linear", {"operator": {"id": "linear", "q": "100*x0"}},
     "config field operator.q: id 'linear' takes no source term"),
    ("operator.b=linear", {"operator": {"id": "linear", "b": "2"}},
     "config field operator.b: id 'linear' takes no scale"),
    ("operator.b=cubic", {"operator": {"id": "cubic", "q": "x0", "b": "2"}},
     "config field operator.b: only the gradsq term takes a scale b, not 'cubic'"),
    ("grid.bounds=degenerate", {"grid": {"bounds": [[0, 0], [-1, 1]]}},
     "config field grid: degenerate bounds along axis 0"),
    ("grid.resolution=3-axes", {"grid": {"resolution": [33, 33, 33]}},
     "config field grid: bounds (2 axes) and resolution (3) disagree"),
    ("level.a=0.49", {"level": {"a": 0.49}}, "config field level: need a < c"),
    ("HYP1D-QUAD-level.x0=[5.0]", {"case": "HYP1D-QUAD", "level": {"x0": [5.0]}},
     "config field level: focal point component x0[0]=5.0 lies outside"),
    # a11 dips below 0 on 2 of the 848 core nodes, which node sampling would miss
    ("operator.principal=local-dip", {
        "grid": {"resolution": [129, 129]},
        "operator": {"id": "cubic", "q": "(x0 * x0 - x1 * x1 + 3.0) ** 3",
                     "principal": [["1 - 1.2*exp(-3000*((x0-0.1)**2 + x1**2))", 0], [0, 1]]}},
     "config field operator: ellipticity fails: eigenvalues in [-0.191243, 1]"),
    # monotone, (grad a, x - x0) >= 0, but not positive near the focal point
    ("HYP1D-QUAD-operator.principal=non-positive", {
        "case": "HYP1D-QUAD", "operator": {"id": "linear", "principal": "(x0 - 0.5)**2 - 0.1"}},
     "config field operator: wave coefficient not positive: range [-0.0648438, 0.119727]"),
    # the checks' tolerances are relative: 50% asymmetric at the scale 1e-10, and
    # decreasing away from the focal point at the scale 1, and at 1e-8
    ("operator.principal=asymmetric-at-1e-10", {
        "operator": {"id": "linear", "principal": [["1e-10", "0.5e-10"], ["0", "1e-10"]]}},
     "config field operator: principal part not symmetric: |a_ij - a_ji| in [0, 5e-11]"),
    ("HYP1D-QUAD-operator.principal=decreasing", {
        "case": "HYP1D-QUAD", "operator": {"id": "linear", "principal": "2 - (x0 - 0.5)**2"}},
     "config field operator: hyperbolic monotonicity fails: (grad a, x - x0) in "
     "[-0.439453, -0.0703125]"),
    ("HYP1D-QUAD-operator.principal=decreasing-at-1e-8", {
        "case": "HYP1D-QUAD",
        "operator": {"id": "linear", "principal": "1e-8*(2 - (x0 - 0.5)**2)"}},
     "config field operator: hyperbolic monotonicity fails: (grad a, x - x0) in "
     "[-4.39453e-09, -7.03125e-10]"),
    ("family=parabolic", {"family": "parabolic"},
     "config field family: case ELL2D-CUBIC is elliptic, not parabolic"),
    ("optimizer.gamma=1.5-fixed", {"optimizer": {"step_mode": "fixed", "gamma": 1.5}},
     "config field optimizer: fixed step size must lie in (0, 1)"),
    ("data.noise_level=1e308", {"data": {"noise_level": 1e308}},
     "config field data: noise level 1e+308 makes the Cauchy data non-finite"),
]


def test_direct_solve_of_a_nonlinear_operator_converges(tmp_path):
    """The direct solver takes any operator id: on ELL2D-CUBIC its damped
    Gauss-Newton steps are full ones and end on the gradient tolerance."""
    assert main(["solve", str(_sweep_config(tmp_path, solver="direct"))]) == 0
    ran = json.loads((tmp_path / "out" / "report.json").read_text())["run"]
    assert ran["converged"] and ran["reason"] == "gradient tolerance reached"
    assert ran["iterations"] == len(ran["step_history"]) + 1 >= 3
    assert set(ran["step_history"]) == {1.0}


@pytest.mark.parametrize("key,value,message", [
    ("mode", "euclidean", "config field optimizer.mode: must be one of sobolev"),
    ("armijo_c", 1e-4, "config field optimizer.armijo_c: unknown keys"),
    ("shrink", 0.5, "config field optimizer.shrink: unknown keys"),
    ("max_halvings", 60, "config field optimizer.max_halvings: unknown keys"),
], ids=["mode=euclidean", "armijo_c", "shrink", "max_halvings"])
def test_descent_has_one_geometry_and_fixed_line_search(tmp_path, caplog, key, value, message):
    """The descent runs in the H^k geometry only and its line-search
    constants are not config keys: naming another geometry or a constant,
    even at its value, exits 1 before any output."""
    assert main(["solve", str(_sweep_config(tmp_path, optimizer={key: value}))]) == 1
    assert message in caplog.text
    assert not (tmp_path / "out").exists()


def test_mixed_principal_needs_no_declared_bounds(tmp_path):
    """A constant principal matrix with eigenvalues 0.7 and 1.3 loads as it is
    and solves; its least eigenvalue is positive, which is all it must be."""
    operator = {"id": "cubic", "q": "(x0 * x0 - x1 * x1 + 3.0) ** 3",
                "principal": [["1", "0.3"], ["0.3", "1"]]}
    assert main(["solve", str(_sweep_config(tmp_path, operator=operator, solver="direct"))]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config"]["operator"]["principal"] == operator["principal"]
    assert report["run"]["converged"]


def test_symmetric_principal_at_scale_1e9_loads():
    """An off-diagonal written two ways rounds to two values 7.45e-9 apart,
    which is symmetric at the matrix's scale 1e9: it loads."""
    setup = build_setup({"case": "ELL2D-CUBIC", "operator": {"id": "linear", "principal": [
        ["1e9", "1e9*(x0/3 + x1/7)"], ["(1e9*x0)/3 + (1e9*x1)/7", "1e9"]]}})
    assert len(setup.params.stencil.second_mixed) == 1


class TestLoadWork:
    """One load parses each expression twice, in the schema's check and where
    its function is made, and evaluates the principal part once on the core
    nodes, where the stencil keeps and checks it; the wave coefficient's
    monotonicity probe adds 2n evaluations on n spatial axes."""

    @staticmethod
    def _counted(monkeypatch) -> tuple[Counter, Counter]:
        parsed, evaluated = Counter(), Counter()
        parse, evaluate = harness._parse_expression, harness.evaluate_expression

        def counted_parse(expr):
            parsed[expr] += 1
            return parse(expr)

        def counted_evaluate(expr, *args):
            evaluated[expr] += 1
            return evaluate(expr, *args)

        monkeypatch.setattr(harness, "_parse_expression", counted_parse)
        monkeypatch.setattr(harness, "evaluate_expression", counted_evaluate)
        return parsed, evaluated

    def test_principal_matrix(self, monkeypatch):
        entries = [["1 + 0.1*x0", "0.2*x1"], ["x1*0.2", "1.5 + 0*x1"]]
        parsed, evaluated = self._counted(monkeypatch)
        setup = build_setup({"case": "ELL2D-CUBIC",
                             "operator": {"id": "linear", "principal": entries}})
        for expr in sum(entries, []):
            assert parsed[expr] <= 2 and evaluated[expr] == 1, expr
        before = sum(parsed.values())
        setup.params.op.principal(setup.grid.coords(setup.mask.dofs))  # a kept function
        assert sum(parsed.values()) == before

    def test_wave_coefficient(self, monkeypatch):
        parsed, evaluated = self._counted(monkeypatch)
        build_setup({"case": "HYP1D-QUAD", "operator": {"id": "linear", "principal": "1 + 0*x0"}})
        assert parsed["1 + 0*x0"] <= 2 and evaluated["1 + 0*x0"] == 1 + 2 * 1


def _malformed_case(section, key, value):
    """(command, overrides, message) of one MALFORMED_VALUES entry."""
    command = "solve" if section == "optimizer" else "certify"
    if section is None:
        return command, {key: value}, f"config field {key}: "
    return command, {section: {key: value}}, f"config field {section}.{key}: "


class TestCli:
    def test_solve_direct_exit_zero(self, tmp_path):
        cfg = minimal_config(solver="direct", output_dir=str(tmp_path / "out"),
                             functional={"beta_policy": "keep"})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["run"]["converged"] is True
        assert report["errors"]["l2_inner"] < 0.05
        wall_time = report["run"]["wall_time"]
        assert isinstance(wall_time, float) and wall_time > 0.0

    def test_singular_direct_system_exits_two(self, tmp_path, caplog):
        """beta 1e-320 passes validation, but beta * G underflows and leaves
        the normal equations singular: exit 2 with a message naming the
        system, not a traceback."""
        cfg = {"case": "ELL2D-HARMONIC", "grid": {"resolution": [33, 33]},
               "functional": {"beta": 1e-320, "beta_policy": "keep"}, "solver": "direct",
               "output_dir": str(tmp_path / "out")}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 2
        assert ("numerical failure: sparse factorization of the 54 x 54 system failed: "
                "Factor is exactly singular") in caplog.text

    def test_huge_beta_direct_solve_exits_two(self, tmp_path, caplog):
        """At beta 1e300, beta * G_ff of ELL2D-HARMONIC reaches 5e307, still
        finite, and so does the one exact step: exit 0. At beta 2e300 the
        squared norm of the first direction overflows: exit 2 with a message
        naming beta, not 0 with a numpy warning (a traceback here, where
        warnings are errors)."""
        path = tmp_path / "p.json"
        for beta, code in ((1e300, 0), (2e300, 2)):
            path.write_text(json.dumps({
                "case": "ELL2D-HARMONIC", "solver": "direct",
                "functional": {"beta": beta, "beta_policy": "keep"},
                "output_dir": str(tmp_path / "out")}))
            assert main(["solve", str(path)]) == code
        assert ("numerical failure: squared gradient norm is not finite "
                "at beta=2e+300; reduce beta") in caplog.text

    @pytest.mark.parametrize("solver, beta, lam, message", [
        # the squared dual norm of the first Sobolev gradient overflows
        ("gradient", 1e300, 2.0,
         "squared gradient norm is not finite at beta=1e+300; reduce beta"),
        # the right-hand side, the gradient at the data, overflows before the assembly
        ("direct", 1e301, 2.0, "gradient is not finite at beta=1e+301; reduce beta"),
        # the data weight is past the range where it is made, at load
        ("direct", 5e-3, 1e3, "Carleman weight at lambda=1000 is not finite at level "
         "value 4, exponent 3.63e+03; reduce lambda"),
    ], ids=["gradient", "direct", "lambda"])
    def test_beta_near_the_float_range_exits_two(self, solver, beta, lam, message, tmp_path,
                                                  caplog):
        """A beta near the float range on the shipped ELL2D-HARMONIC config:
        exit 2 with a message naming beta, not a numpy warning (a traceback
        here, where warnings are errors) or a message naming lambda; and a
        lambda past the range exits 2 as well, with a message naming lambda."""
        cfg = json.loads((CONFIG_DIR / "ell2d_harmonic_reconstruct.json").read_text())
        cfg.update(solver=solver, functional={"beta": beta, "beta_policy": "keep"},
                   weight={"lambda": lam}, output_dir=str(tmp_path / "out"))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 2
        assert f"numerical failure: {message}" in caplog.text
        assert caplog.text.count("reduce lambda") == (lam > 2.0)
        assert not (tmp_path / "out").exists()

    def test_certificate_past_the_float_range_exits_two(self, tmp_path, caplog, capsys):
        """At beta 1e306 on the shipped ELL2D-HARMONIC config, beta * ||h||^2
        overflows: the margin was inf - inf = NaN, never < 0, and certify
        printed PASS and wrote NaN margins. Exit 2 with a message naming beta,
        and no numpy warning (a traceback here, where warnings are errors)."""
        cfg = json.loads((CONFIG_DIR / "ell2d_harmonic_reconstruct.json").read_text())
        cfg.update(functional={"beta": 1e306, "beta_policy": "keep"},
                   certificate={"radius": 200, "samples": 4, "seed": 3},
                   output_dir=str(tmp_path / "out"))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["certify", str(path)]) == 2
        assert ("numerical failure: Bregman gap is not finite at beta=1e+306"
                in caplog.text)
        assert "PASS" not in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_solve_gradient_reports_contraction(self, tmp_path):
        cfg = {
            "case": "ELL2D-CUBIC",
            "weight": {"lambda": 2.0},
            "functional": {"beta": 0.55, "beta_policy": "keep"},
            "solver": "gradient",
            "optimizer": {"max_iters": 4000, "grad_tol": 1e-6},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["run"]["converged"] is True
        assert 0.0 < report["run"]["q_hat"] < 1.0

    def test_gradcheck_command(self, tmp_path):
        cfg = minimal_config(output_dir=str(tmp_path / "out"))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["gradcheck", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["gradcheck"]["max_rel_error"] < 1e-6

    def test_gradcheck_draw_stream_pinned(self, tmp_path):
        """gradcheck's directions come from its seed's normals, one per free
        DOF and direction: on the shipped config the largest relative error is
        the figure of that stream (the golden file checks only the tolerance)."""
        config = CONFIG_DIR / "hyp1d_quad_gradcheck.json"
        assert main(["gradcheck", str(config), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["gradcheck"]["max_rel_error"] == pytest.approx(2.3656681003285858e-11,
                                                                     rel=1e-12)

    def test_certify_command(self, tmp_path):
        cfg = {
            "case": "ELL2D-CUBIC",
            "functional": {"beta": 0.55, "beta_policy": "keep"},
            "certificate": {"samples": 5, "radius": 5.0, "seed": 3},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["certify", str(path), "--require-certificate"]) == 0

    def test_sweep_command(self, tmp_path):
        cfg = {
            "case": "ELL2D-CUBIC",
            "functional": {"beta": 1e-3, "beta_policy": "keep"},
            "certificate": {"samples": 3, "radius": 5.0, "seed": 3},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", str(path), "--lambda", "1,2"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["certificates"]) == 2

    def test_sweep_reports_the_smallest_passing_lambda(self, tmp_path, capsys):
        """lambda1 is the smallest passing lambda, whatever the list's order."""
        path = _sweep_config(tmp_path)
        assert main(["sweep", str(path), "--lambda", "8,4,2,1"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        passing = [c["lambda"] for c in report["certificates"] if c["passed"]]
        assert min(passing) < 8.0 and report["lambda1"] == min(passing)
        assert f"smallest passing lambda: {min(passing):g}" in capsys.readouterr().out

    def test_certificate_reports_phase_time_and_quantiles(self, tmp_path):
        path = _sweep_config(tmp_path)
        assert main(["certify", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert isinstance(report["wall_time"], float) and report["wall_time"] > 0.0
        (cert,) = report["certificates"]
        q = cert["margin_quantiles"]
        assert set(q) == {"min", "p5", "median"}
        assert q["min"] == cert["min_margin"] <= q["p5"] <= q["median"]

    @pytest.mark.parametrize("radius", [1e160, 1e300])
    def test_huge_certificate_radius_exits_with_a_message(self, tmp_path, radius):
        """A radius whose square overflows a float ended `certify` in an
        OverflowError traceback from draw_in_ball. The draw works in units of
        the radius now, and a pair too far apart for J exits 2 with a message
        that names the radius, without a numpy warning."""
        path = _sweep_config(tmp_path, grid={"resolution": [17, 17]},
                             certificate={"radius": radius})
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "convexcauchy", "certify", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr and "RuntimeWarning" not in done.stderr
        assert "numerical failure: Bregman gap is not finite at a field pair" in done.stderr
        assert "reduce the certificate radius" in done.stderr

    @staticmethod
    def _constant_trace(tmp_path, value, **overrides) -> Path:
        """ELL2D-CUBIC at 33^2 (lambda 2, beta 0.55, the gradient solver) with
        every trace value `value`, read from a data file; an override
        replaces a config section."""
        mask = build_setup({"case": "ELL2D-CUBIC"}).mask
        rows = ["layer,index,value"] + [
            f"{layer},{idx},{value!r}"
            for layer, nodes in (("g0", mask.value_layer), ("g1", mask.deriv_layer))
            for idx in np.flatnonzero(nodes.ravel())]
        (tmp_path / "trace.csv").write_text("\n".join(rows) + "\n")
        cfg = {"case": "ELL2D-CUBIC", "weight": {"lambda": 2.0},
               "functional": {"beta": 0.55, "beta_policy": "keep"}, "solver": "gradient",
               "data": {"file": str(tmp_path / "trace.csv")},
               "output_dir": str(tmp_path / "out"), **overrides}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        return path

    @pytest.mark.parametrize("value", [1e60, 1e110])
    def test_trace_scale_past_the_float_range_names_the_data(self, tmp_path, caplog, value):
        """Trace values of 1e60 overflowed J's r * r, and values of 1e110 the
        cubic term's u**3, each with a numpy warning (a traceback here, where
        warnings are errors); the first then said "reduce lambda". Exit 2 with
        a message naming the trace data's scale."""
        assert main(["solve", str(self._constant_trace(tmp_path, value))]) == 2
        assert (f"numerical failure: weighted residual is not finite at trace-data scale "
                f"{value:.3g}; rescale the Cauchy data") in caplog.text
        assert "reduce lambda" not in caplog.text

    def test_certificate_radius_past_the_float_range_names_the_radius(self, tmp_path, caplog):
        """With trace values 1 and radius 1e160, certify blamed the lower-order
        term, naming neither the certificate nor its radius."""
        path = self._constant_trace(tmp_path, 1.0, certificate={
            "radius": 1e160, "samples": 4, "seed": 3})
        assert main(["certify", str(path)]) == 2
        assert "numerical failure: Bregman gap is not finite at a field pair" in caplog.text
        assert "reduce the certificate radius" in caplog.text

    @pytest.mark.parametrize("flag,message", [
        ("nan", "finite"), ("inf", "finite"), (",", "names no lambda"), ("abc", "bad --lambda"),
        ("0.5", "finite number >= 1"), ("1e309", "finite number >= 1"),
    ], ids=["nan", "inf", "empty", "not-a-number", "below-one", "past-the-float-range"])
    def test_bad_lambda_flag_exits_one(self, tmp_path, caplog, capsys, flag, message):
        """A --lambda list that names no finite number >= 1 is refused while
        the arguments are parsed, naming the flag, before the config is read."""
        path = _sweep_config(tmp_path)
        caplog.set_level("INFO", logger="convexcauchy")
        assert main(["sweep", str(path), f"--lambda={flag}"]) == 1
        err = capsys.readouterr().err
        assert "argument --lambda" in err and message in err
        assert "resolved problem" not in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,overrides,message", [
        ("sweep", {"certificate": {"lambdas": []}}, "non-empty list"),
        ("sweep", {"certificate": {"lambdas": [1.0, float("nan")]}}, "finite"),
        ("sweep", {"certificate": {"lambdas": [1.0, "two"]}}, "certificate.lambdas"),
        ("sweep", {"certificate": {"lambdas": 4.0}}, "non-empty list"),
        ("certify", {"weight": {"lambda": float("nan")}}, "finite"),
        ("solve", {"weight": {"lambda": float("nan")}}, "finite"),
        ("certify", {"operator": {"id": "cubic", "q": "log(x0 - 5)"}},
         "expression 'log(x0 - 5)' is not finite"),
        # no bound is declared, not even one that holds: the validation measures them
        ("certify", {"operator": {"id": "linear", "mu": [2.0, 3.0]}},
         "config field operator.mu: unknown keys"),
        ("certify", {"operator": {"id": "linear", "a_bounds": [1.0, 1.0]}},
         "config field operator.a_bounds: unknown keys"),
    ] + [_malformed_case(*entry) for entry in MALFORMED_VALUES]
      + [("certify", overrides, message) for _, overrides, message in CROSS_KEY_VALUES],
        ids=["empty-list", "nan-in-list", "text-in-list", "not-a-list", "nan-certify",
             "nan-solve", "operator.q=nan-valued", "operator.mu=[2.0, 3.0]",
             "operator.a_bounds=[1.0, 1.0]"]
        + [".".join(filter(None, (section, key))) + f"={value!r}"
           for section, key, value in MALFORMED_VALUES]
        + [name for name, _, _ in CROSS_KEY_VALUES])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_lambda_config_exits_one(self, tmp_path, caplog, command, overrides, message):
        """A bad lambda, and every other malformed value, exits 1 with a message
        before any output is written, and without a numpy warning."""
        path = _sweep_config(tmp_path, **overrides)
        assert main([command, str(path)]) == 1
        assert message in caplog.text
        assert not (tmp_path / "out").exists()

    def test_stalled_solve_exits_two_with_report(self, tmp_path):
        """The shipped solve config with an unreachable gradient tolerance stops
        when J no longer decreases along a step, writes its reports and exits 2."""
        cfg = json.loads((CONFIG_DIR / "ell2d_cubic_solve.json").read_text())
        cfg["optimizer"].update(grad_tol=1e-13, max_iters=400)
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["run"]["converged"] is False
        assert report["run"]["reason"].startswith("J does not decrease along the step")
        assert report["run"]["iterations"] < 400
        with open(tmp_path / "out" / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == report["run"]["iterations"]

    @pytest.mark.parametrize("case,level,key,family", [
        ("ELL2D-CUBIC", {"eta": 0.3, "x0": [0.5], "t_span": 9.0}, "t_span", "elliptic"),
        ("HYP1D-QUAD", {"nu": 3.0, "a": 0.1, "x_width": 7.0}, "a", "hyperbolic"),
        ("ELL2D-CUBIC", {"xi": "x0 + x1"}, "xi", "elliptic"),
    ])
    def test_level_key_the_family_does_not_read_exits_one(self, tmp_path, caplog, case, level,
                                                          key, family):
        """A level key that the family does not read would be ignored and
        echoed as if the run had used it: exit 1, naming the key and the
        family, with no output written."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"case": case, "level": level,
                                    "output_dir": str(tmp_path / "out")}))
        assert main(["solve", str(path)]) == 1
        assert f"config field level.{key}: not read by the {family} family" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_direct_solver_with_fixed_step_exits_one(self, tmp_path, caplog):
        """`"solver": "direct"` with `"step_mode": "fixed"` is a config error:
        exit 1, naming both, with no output written."""
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"case": "ELL2D-HARMONIC", "solver": "direct",
                                    "optimizer": {"step_mode": "fixed", "gamma": 0.5},
                                    "output_dir": str(tmp_path / "out")}))
        assert main(["solve", str(path)]) == 1
        assert "solver 'direct' takes no step_mode 'fixed'" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_library_run_starts_where_solve_does(self, tmp_path):
        """run(params, None, config) makes the gradient's start itself, the
        data extension on the factor the Riesz solves keep: the field bit for
        bit, the history and the counters of `solve`, 1 factorization and 0
        refinements."""
        cfg = json.loads((CONFIG_DIR / "ell2d_cubic_solve.json").read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 0
        solved = json.loads((tmp_path / "out" / "report.json").read_text())["run"]
        setup = load_problem(path)
        report = run(setup.params, None, setup.opt_config)
        ran = json.loads(json.dumps(report.to_dict()))
        assert {**ran, "wall_time": None} == {**solved, "wall_time": None}
        assert ran["counters"]["factorizations"] == 1 and ran["counters"]["refinements"] == 0
        with open(tmp_path / "out" / "field.csv", newline="") as fh:
            assert report.final.tolist() == [float(row["u"]) for row in csv.DictReader(fh)]

    def test_iteration_cap_history_csv(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "ell2d_cubic_solve.json").read_text())
        cfg["optimizer"].update(grad_tol=1e-13, max_iters=4)
        cfg["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["run"]["iterations"] == 4
        with open(tmp_path / "out" / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert rows[-1]["grad_norm"] == "" and rows[-1]["step"] == "" and rows[-1]["radius"] == ""
        assert float(rows[-1]["j"]) == report["run"]["final_j"]
        radii = [float(row["radius"]) for row in rows[:-1]]
        assert radii == report["run"]["radius_history"]
        assert all(r > 0 for r in radii)

    @pytest.mark.parametrize("section,key", [
        ("grid", "resolutions"), ("level", "nuu"), ("operator", "qq"), ("weight", "lamda"),
        ("functional", "riesz_tol"), ("data", "noise"), ("optimizer", "gama"),
        ("certificate", "sede"),
    ])
    def test_unknown_section_key_exit_one(self, tmp_path, caplog, section, key):
        cfg = minimal_config(solver="direct", output_dir=str(tmp_path / "out"))
        cfg[section] = {**cfg.get(section, {}), key: 1}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path)]) == 1
        assert f"{section}.{key}" in caplog.text

    def test_config_error_exit_one(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"case": "NOPE"}))
        assert main(["solve", str(path)]) == 1

    def test_missing_file_exit_one(self):
        assert main(["solve", "/nonexistent/x.json"]) == 1

    def test_undecodable_config_exit_one(self, tmp_path, caplog):
        path = tmp_path / "p.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(minimal_config()).encode("utf-16-le"))
        assert main(["solve", str(path)]) == 1
        assert f"config {path} is not UTF-8 text" in caplog.text

    def test_deeply_nested_config_exit_one(self, tmp_path, caplog):
        path = tmp_path / "p.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["solve", str(path)]) == 1
        assert f"config {path} is nested too deeply to parse" in caplog.text

    def test_out_of_memory_exit_one(self, tmp_path, caplog, monkeypatch):
        """An allocation the config's grid makes too large exits 1 with a message."""
        def classify_nodes(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(100000, 100000) and data type float64")
        monkeypatch.setattr(harness, "classify_nodes", classify_nodes)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(minimal_config(output_dir=str(tmp_path / "out"))))
        assert main(["solve", str(path)]) == 1
        assert "out of memory: Unable to allocate 74.5 GiB" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_usage_error_exit_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_out_override(self, tmp_path):
        cfg = minimal_config(solver="direct", output_dir=str(tmp_path / "ignored"))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", str(path), "--out", str(tmp_path / "actual")]) == 0
        assert (tmp_path / "actual" / "report.json").exists()
