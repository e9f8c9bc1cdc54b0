"""Experiment orchestration tests: config validation, determinism, outputs.

Oracle strategy:
- Config-contract tests assert the exact failure mode (exception type, the
  offending field named in the message, process exit code).
- The det-law quadratics run uses an algebraically exact family (no ripple),
  so its residual bound 1e-13 is pure roundoff headroom.
- Determinism is byte equality of the produced CSV across worker counts —
  no tolerance.
"""

import gc
import json
import math
import multiprocessing.connection
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import tma
from tma import cli, jets
from tma.cli import (
    ExperimentConfig,
    SUITES,
    ingest_function_spec,
    load_config,
    main,
    run_experiment,
)
from tma.errors import ClassExit, ConfigInvalid, ParseError, UnknownAtom
from tma.funclass import EnsembleSpec, class_membership, default_cloud, draw_member
from tma.solver import perturbed_flow_spec


def _freeze_count_rows(payload):
    """Stands in for ``cli._sweep_block_rows`` in a pool worker: one row carrying the worker's freeze count."""
    return [(payload[7], payload[1], payload[2], 0, float(gc.get_freeze_count()))]


def _pid_rows(payload):
    """Stands in for ``cli._sweep_block_rows`` in a pool worker: one row carrying the worker's PID.

    The pause keeps a worker busy long enough that every worker of a
    2-worker pool takes some of a sweep's blocks.
    """
    time.sleep(0.05)
    return [(payload[7], payload[1], payload[2], 0, float(os.getpid()))]


def _failing_rows(payload):
    """Stands in for ``cli._sweep_block_rows``: a block of shape (2, 2) raises at once, any other takes a while.

    The (2, 2) block is the heaviest, so it goes out first, and its error
    comes back while the other worker still holds a block.
    """
    if payload[1:3] == (2, 2):
        raise ClassExit(f"block at draw {payload[7]} left the class")
    time.sleep(0.05)
    return _payload_rows(payload)


def _payload_rows(payload):
    """Stands in for ``cli._sweep_block_rows``: rows that are a function of the payload alone."""
    _, k, l, _, _, _, seed, first, count, n_points = payload
    return [
        (draw, k, l, i, seed + draw / 7.0 + i / 3.0)
        for draw in range(first, first + count)
        for i in range(n_points)
    ]


def checkout_env():
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``, for ``python -m`` subprocesses."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(tma.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def write_json(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_unknown_suite_names_field(self):
        with pytest.raises(ConfigInvalid, match="suite"):
            ExperimentConfig.from_dict({"suite": "no-such-suite", "seed": 1})

    def test_missing_suite(self):
        with pytest.raises(ConfigInvalid, match="suite"):
            ExperimentConfig.from_dict({"seed": 1})

    def test_unknown_key_names_key(self):
        with pytest.raises(ConfigInvalid, match="flux_capacitance"):
            ExperimentConfig.from_dict({"suite": "rigidity", "flux_capacitance": 3})

    def test_seed_required_for_randomized_suites(self):
        for suite in (
            "det-law", "w-psd", "q-sign",
            "evolution-identity", "heat-identity", "real-complexify",
        ):
            with pytest.raises(ConfigInvalid, match="seed"):
                ExperimentConfig.from_dict({"suite": suite})

    def test_deterministic_suites_need_no_seed(self):
        for suite in ("flow-convergence", "oscillation-decay", "rigidity"):
            cfg = ExperimentConfig.from_dict({"suite": suite})
            assert cfg.seed is None
            assert cfg.suite == suite

    def test_seed_type_and_range(self):
        with pytest.raises(ConfigInvalid, match="seed"):
            ExperimentConfig.from_dict({"suite": "q-sign", "seed": -1})
        with pytest.raises(ConfigInvalid, match="seed"):
            ExperimentConfig.from_dict({"suite": "q-sign", "seed": True})
        with pytest.raises(ConfigInvalid, match="seed"):
            ExperimentConfig.from_dict({"suite": "q-sign", "seed": "42"})

    def test_positive_tolerance_enforced(self):
        with pytest.raises(ConfigInvalid, match="tolerance"):
            ExperimentConfig.from_dict({"suite": "det-law", "seed": 1, "tolerance": 0})
        with pytest.raises(ConfigInvalid, match="tolerance"):
            ExperimentConfig.from_dict({"suite": "det-law", "seed": 1, "tolerance": -1e-10})

    def test_shapes_must_be_pairs_of_positive_ints(self):
        for bad in ([[0, 1]], [[1]], [[1, 2, 3]], [1, 2], "shapes", []):
            with pytest.raises(ConfigInvalid, match="shapes"):
                ExperimentConfig.from_dict({"suite": "det-law", "seed": 1, "shapes": bad})

    def test_ladder_must_decrease(self):
        with pytest.raises(ConfigInvalid, match="ladder"):
            ExperimentConfig.from_dict(
                {"suite": "oscillation-decay", "ladder": [0.5, 0.5, 0.25]}
            )
        with pytest.raises(ConfigInvalid, match="ladder"):
            ExperimentConfig.from_dict({"suite": "oscillation-decay", "ladder": [0.5, 0.25]})

    def test_ladder_cannot_exceed_radius(self):
        with pytest.raises(ConfigInvalid, match="ladder"):
            ExperimentConfig.from_dict(
                {"suite": "oscillation-decay", "radius": 0.25, "ladder": [0.5, 0.25, 0.125]}
            )

    def test_defaults_are_populated(self):
        cfg = ExperimentConfig.from_dict({"suite": "det-law", "seed": 0})
        assert cfg.params["shapes"] == [[1, 1], [2, 1], [1, 2], [2, 2]]
        assert cfg.params["draws"] == 100
        assert cfg.params["points"] == 20
        assert cfg.params["tolerance"] == 1e-10
        assert cfg.out == "."

    def test_overrides_replace_defaults(self):
        cfg = ExperimentConfig.from_dict(
            {"suite": "q-sign", "seed": 42, "draws": 7, "out": "results"}
        )
        assert cfg.params["draws"] == 7
        assert cfg.params["points"] == 1
        assert cfg.out == "results"

    def test_broken_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"suite": "q-sign" broken')
        with pytest.raises(ConfigInvalid, match=r"line 1"):
            load_config(str(path))

    def test_cli_seed_satisfies_randomized_requirement(self, tmp_path):
        path = write_json(tmp_path, "cfg.json", {"suite": "q-sign", "draws": 2})
        with pytest.raises(ConfigInvalid, match="seed"):
            load_config(path)
        cfg = load_config(path, seed=9)
        assert cfg.seed == 9

    def test_every_registered_suite_has_defaults_matching_schema(self):
        # each default passes its own validator unchanged, type included, and
        # a config naming only the suite (and a seed where one is needed)
        # resolves to exactly the defaults
        for name, sd in SUITES.items():
            for key, (validate, default) in sd.fields.items():
                got = validate(key, default)
                assert (got, type(got)) == (default, type(default)), (name, key)
            cfg = ExperimentConfig.from_dict(
                {"suite": name, **({"seed": 0} if sd.randomized else {})}
            )
            assert cfg.params == {key: default for key, (_, default) in sd.fields.items()}

    def test_configs_share_no_default_lists(self):
        # det-law and w-psd default to the same shapes record; editing one
        # config's params must reach neither the other suite nor a later config
        first = ExperimentConfig.from_dict({"suite": "det-law", "seed": 1})
        first.params["shapes"].append([3, 3])
        osc = ExperimentConfig.from_dict({"suite": "oscillation-decay"})
        osc.params["ladder"][0] = 9.0
        assert ExperimentConfig.from_dict({"suite": "w-psd", "seed": 1}).params["shapes"] == _ALL
        assert ExperimentConfig.from_dict({"suite": "oscillation-decay"}).params["ladder"] == [0.5, 0.25, 0.125]

    def test_eps_beyond_the_class_guarantee_is_rejected(self):
        # the ensemble's members are class members only for eps <= min(a, b)/2
        for suite in cli._SWEEPS:
            with pytest.raises(ConfigInvalid, match="eps"):
                ExperimentConfig.from_dict({"suite": suite, "seed": 1, "eps": 3.0})
        with pytest.raises(ConfigInvalid, match="eps"):
            ExperimentConfig.from_dict({"suite": "det-law", "seed": 1, "b": 0.1, "eps": 0.1})
        at_bound = ExperimentConfig.from_dict({"suite": "det-law", "seed": 1, "b": 0.2, "eps": 0.1})
        assert at_bound.params["eps"] == 0.1


# ---------------------------------------------------------------------------
# runs and outputs
# ---------------------------------------------------------------------------


class TestRunOutputs:
    def test_det_law_on_exact_quadratics(self, tmp_path):
        # eps 0 keeps every member an exact quadratic: the determinant law is
        # then an algebraic identity and the residual is pure roundoff
        cfg = ExperimentConfig.from_dict(
            {
                "suite": "det-law", "seed": 11, "draws": 8, "points": 5,
                "eps": 0.0, "tolerance": 1e-13, "out": str(tmp_path),
            }
        )
        result = run_experiment(cfg)
        assert result.passed
        assert result.error is None
        assert len(result.rows) == 8 * 5
        assert max(r[4] for r in result.rows) <= 1e-13

    def test_qsign_small_run_row_count_and_bound(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"suite": "q-sign", "seed": 42, "draws": 25, "out": str(tmp_path)}
        )
        result = run_experiment(cfg)
        assert result.passed
        assert len(result.rows) == 25  # one point per draw by default
        assert max(r[4] for r in result.rows) <= 1e-8
        with open(result.csv_path) as fh:
            header = fh.readline().rstrip("\n")
        assert header == "draw,shape_k,shape_l,point,q_lambda_max,g1,g2,g3,g4"

    def test_wpsd_rows_are_strictly_positive(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"suite": "w-psd", "seed": 3, "draws": 8, "points": 4, "out": str(tmp_path)}
        )
        result = run_experiment(cfg)
        assert result.passed
        assert min(r[4] for r in result.rows) > 0.0

    def test_draws_split_across_shapes_earliest_gets_remainder(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "suite": "det-law", "seed": 5, "draws": 6, "points": 1,
                "shapes": [[1, 1], [2, 1], [1, 2], [2, 2]], "out": str(tmp_path),
            }
        )
        result = run_experiment(cfg)
        by_shape = {}
        for r in result.rows:
            by_shape[(r[1], r[2])] = by_shape.get((r[1], r[2]), 0) + 1
        assert by_shape == {(1, 1): 2, (2, 1): 2, (1, 2): 1, (2, 2): 1}

    def test_csv_bytes_identical_across_worker_counts(self, tmp_path):
        body = {"suite": "det-law", "seed": 2, "draws": 6, "points": 3}
        out1, out3 = str(tmp_path / "w1"), str(tmp_path / "w3")
        r1 = run_experiment(
            ExperimentConfig.from_dict({**body, "out": out1}), workers=1
        )
        r3 = run_experiment(
            ExperimentConfig.from_dict({**body, "out": out3}), workers=3
        )
        assert r1.passed and r3.passed
        assert pathlib.Path(r1.csv_path).read_bytes() == pathlib.Path(r3.csv_path).read_bytes()

    @pytest.mark.parametrize(
        "suite, shapes",
        [
            ("q-sign", [[1, 1], [2, 1]]),
            ("evolution-identity", [[1, 2], [1, 1]]),
            ("heat-identity", [[2, 1], [1, 2]]),
            ("real-complexify", [[1, 1], [2, 2]]),
            ("det-law", [[1, 1], [2, 2]]),
            ("w-psd", [[2, 1], [1, 2]]),
        ],
    )
    def test_flow_suite_csv_bytes_identical_across_worker_counts(self, tmp_path, suite, shapes):
        # each shape gets two full blocks and a partial one, so block edges
        # and a shape edge fall inside the sweep
        draws = 4 * cli._BLOCK + 3
        body = {"suite": suite, "seed": 17, "draws": draws, "shapes": shapes}
        blobs = []
        for workers in (1, 3):
            out = str(tmp_path / f"w{workers}")
            r = run_experiment(ExperimentConfig.from_dict({**body, "out": out}), workers=workers)
            assert r.passed and r.error is None
            blobs.append(pathlib.Path(r.csv_path).read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].count(b"\n") - 1 == draws * cli._SWEEPS[suite].points

    @pytest.mark.parametrize("suite", sorted(cli._SWEEPS))
    def test_rows_do_not_depend_on_block_size(self, tmp_path, monkeypatch, suite):
        body = {"suite": suite, "seed": 8, "draws": 7, "points": 2, "shapes": [[1, 1], [2, 1]]}
        blobs = set()
        for block in (1, 3, cli._BLOCK):
            monkeypatch.setattr(cli, "_BLOCK", block)
            out = str(tmp_path / f"b{block}")
            r = run_experiment(ExperimentConfig.from_dict({**body, "out": out}), workers=1)
            assert r.error is None
            blobs.add(pathlib.Path(r.csv_path).read_bytes())
        assert len(blobs) == 1

    def test_one_block_sweep_starts_no_pool(self, tmp_path, monkeypatch, fresh_sweep_pool):
        # an earlier test may have left a 3-worker pool that would be handed
        # back without a new one, so asking for the pool at all fails
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block sweep started a worker pool")

        monkeypatch.setattr(cli, "_SweepPool", no_pool)
        monkeypatch.setattr(cli, "_sweep_pool", no_pool)
        cfg = ExperimentConfig.from_dict({"suite": "q-sign", "seed": 4, "draws": cli._BLOCK, "out": str(tmp_path)})
        r = run_experiment(cfg, workers=3)
        assert r.error is None and r.passed
        assert len(r.rows) == cli._BLOCK
        assert cli._pool is None

    def test_pool_workers_freeze_inherited_heap(self, tmp_path, monkeypatch, fresh_sweep_pool):
        monkeypatch.setattr(cli, "_sweep_block_rows", _freeze_count_rows)
        cfg = ExperimentConfig.from_dict({"suite": "det-law", "seed": 3, "draws": 2 * cli._BLOCK, "out": str(tmp_path)})
        _, rows, _ = cli._run_sweep(cfg, workers=2)
        assert len(rows) > 1 and all(r[4] > 0 for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        body = {"suite": "q-sign", "seed": 42, "draws": 10}
        outs = [str(tmp_path / d) for d in ("a", "b")]
        blobs = []
        for out in outs:
            r = run_experiment(ExperimentConfig.from_dict({**body, "out": out}))
            blobs.append(pathlib.Path(r.csv_path).read_bytes())
        assert blobs[0] == blobs[1]

    def test_csv_floats_carry_17_significant_digits(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"suite": "w-psd", "seed": 1, "draws": 2, "points": 2, "out": str(tmp_path)}
        )
        result = run_experiment(cfg)
        lines = pathlib.Path(result.csv_path).read_text().splitlines()
        for line, row in zip(lines[1:], result.rows):
            assert float(line.split(",")[4]) == row[4]  # format round-trips exactly

    def test_manifest_contents(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"suite": "rigidity", "nodes": 17, "out": str(tmp_path)}
        )
        result = run_experiment(cfg, workers=1)
        manifest = json.loads(pathlib.Path(result.manifest_path).read_text())
        assert manifest["suite"] == "rigidity"
        assert manifest["passed"] is True
        assert manifest["config"]["params"]["nodes"] == 17
        assert manifest["workers"] == 1
        assert manifest["rows"] == 3
        assert manifest["csv"] == "rigidity.csv"
        import tma

        assert manifest["versions"]["package"] == tma.__version__
        assert manifest["versions"]["numpy"] == np.__version__
        names = {a["name"] for a in manifest["assertions"]}
        assert names == {"det_deviation", "entry_variation"}

    def test_manifest_versions_leave_scipy_out(self, tmp_path):
        """A fresh interpreter runs a small det-law sweep: SciPy stays unloaded and unrecorded."""
        script = (
            "import json, sys\n"
            "from tma.cli import ExperimentConfig, run_experiment\n"
            "cfg = ExperimentConfig.from_dict({'suite': 'det-law', 'seed': 3, 'draws': 4,\n"
            "                                  'points': 2, 'out': sys.argv[1]})\n"
            "result = run_experiment(cfg)\n"
            "print(json.dumps({'passed': result.passed, 'manifest': result.manifest_path,\n"
            "                  'scipy_loaded': 'scipy' in sys.modules}))\n"
        )
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=checkout_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report["passed"] is True
        assert report["scipy_loaded"] is False
        manifest = json.loads(pathlib.Path(report["manifest"]).read_text())
        assert sorted(manifest["versions"]) == ["numpy", "package", "python"]

    def test_manifest_written_on_assertion_failure(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "suite": "det-law", "seed": 1, "draws": 2, "points": 1,
                "tolerance": 1e-300, "out": str(tmp_path),
            }
        )
        result = run_experiment(cfg)
        assert not result.passed
        assert result.error is None  # failed assertions are data, not errors
        manifest = json.loads(pathlib.Path(result.manifest_path).read_text())
        assert manifest["passed"] is False
        assert os.path.exists(result.csv_path)  # rows still written

    def test_manifest_written_on_runner_crash(self, tmp_path):
        # a measurement center far outside the torus leaves no sample nodes
        cfg = ExperimentConfig.from_dict(
            {
                "suite": "oscillation-decay", "nodes": 16, "steps": 5,
                "center": [50.0, 50.0], "out": str(tmp_path),
            }
        )
        result = run_experiment(cfg)
        assert not result.passed
        assert result.error is not None and "EmptyCylinder" in result.error
        manifest = json.loads(pathlib.Path(result.manifest_path).read_text())
        assert manifest["passed"] is False
        assert "EmptyCylinder" in manifest["error"]
        assert manifest["csv"] is None

    def test_flow_convergence_suite_passes(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"suite": "flow-convergence", "out": str(tmp_path)}
        )
        result = run_experiment(cfg)
        assert result.passed
        values = dict(result.rows)
        assert values["per_step_error_real"] <= 1e-10
        assert values["per_step_error_complex11"] <= 1e-10
        assert values["time_order_rk4"] >= 3.5
        assert 1.8 <= values["spatial_order"] <= 2.2

    @pytest.mark.parametrize("nodes", [65, 129])
    def test_rigidity_suite_passes_on_fine_grids(self, tmp_path, nodes):
        cfg = ExperimentConfig.from_dict(
            {"suite": "rigidity", "nodes": nodes, "out": str(tmp_path)}
        )
        result = run_experiment(cfg)
        assert result.error is None and result.passed
        values = dict(result.rows)
        assert values["n_nodes"] == (nodes - 4) ** 2
        assert values["det_deviation"] <= 1e-9

    def test_oscillation_suite_passes_and_reuses_ladder_contract(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"suite": "oscillation-decay", "out": str(tmp_path)}
        )
        result = run_experiment(cfg)
        assert result.passed
        lines = pathlib.Path(result.csv_path).read_text().splitlines()
        assert lines[0] == "cylinder_id,rho,quantity,osc,alpha_fit,fit_residual"
        # 5 real channels (time speed + 4 directions) + total, 3 rungs each
        assert len(lines) - 1 == 6 * 3


# Every suite's CSV header and ordered (name, relation, bound) assertions, at
# default tolerances: the output contract a config file's user reads.
_SWEEP_IDS = "draw,shape_k,shape_l,point,"
_CONTRACT = {
    "det-law": (
        {"draws": 2, "points": 1},
        _SWEEP_IDS + "residual",
        [("max_det_residual", "<=", 1e-10)],
    ),
    "w-psd": (
        {"draws": 2, "points": 1},
        _SWEEP_IDS + "lambda_min",
        [("min_w_eigenvalue", ">=", -1e-10)],
    ),
    "q-sign": (
        {"draws": 2},
        _SWEEP_IDS + "q_lambda_max,g1,g2,g3,g4",
        [("max_q_eigenvalue", "<=", 1e-8)]
        + [(f"max_g{j}_eigenvalue", "<=", 1e-8) for j in range(1, 5)],
    ),
    "evolution-identity": (
        {"draws": 2},
        _SWEEP_IDS + "residual",
        [("max_evolution_residual", "<=", 1e-8)],
    ),
    "heat-identity": (
        {"draws": 2},
        _SWEEP_IDS + "residual",
        [("max_heat_residual", "<=", 1e-10)],
    ),
    "real-complexify": (
        {"draws": 2, "points": 1},
        _SWEEP_IDS + "entry_gap",
        [("max_entry_gap", "<=", 1e-10)],
    ),
    "flow-convergence": (
        {"nodes_real": 9, "nodes_complex": 7, "steps": 1},
        "quantity,value",
        [
            ("per_step_error_real", "<=", 1e-10),
            ("per_step_error_complex11", "<=", 1e-10),
            ("time_order_rk4", ">=", 3.5),
            ("time_order_semi_min", ">=", 0.7),
            ("time_order_semi_max", "<=", 1.5),
            ("spatial_order_min", ">=", 1.8),
            ("spatial_order_max", "<=", 2.2),
        ],
    ),
    "oscillation-decay": (
        {"nodes": 16, "steps": 20},
        "cylinder_id,rho,quantity,osc,alpha_fit,fit_residual",
        [
            ("max_ladder_increase", "<=", 0.0),
            ("total_decay_exponent", ">", 0.0),
            ("total_fit_residual", "<=", 0.1),
        ],
    ),
    "rigidity": (
        {"nodes": 17},
        "quantity,value",
        [("det_deviation", "<=", 1e-9), ("entry_variation", "<=", 1e-8)],
    ),
}


@pytest.mark.parametrize("suite", sorted(_CONTRACT))
def test_csv_header_and_assertion_list(tmp_path, suite):
    overrides, header, assertions = _CONTRACT[suite]
    body = {"suite": suite, "out": str(tmp_path), **overrides}
    if SUITES[suite].randomized:
        body["seed"] = 7
    result = run_experiment(ExperimentConfig.from_dict(body))
    assert result.error is None
    assert pathlib.Path(result.csv_path).read_text().splitlines()[0] == header
    manifest = json.loads(pathlib.Path(result.manifest_path).read_text())
    assert [(a["name"], a["relation"], a["bound"]) for a in manifest["assertions"]] == assertions


def test_rerun_replaces_its_outputs_rather_than_rewriting_them(tmp_path):
    # A rerun into one directory writes new files: a hard link to the first
    # run's CSV and manifest keeps their bytes, and the rerun's files hold
    # exactly what a run into an empty directory writes.
    def run(draws, out):
        body = {"suite": "det-law", "seed": 3, "draws": draws, "points": 2, "out": str(out)}
        return run_experiment(ExperimentConfig.from_dict(body))

    first = run(8, tmp_path / "shared")
    kept = {}
    for path in (first.csv_path, first.manifest_path):
        kept[path] = pathlib.Path(path).read_bytes()
        os.link(path, path + ".kept")
    second = run(4, tmp_path / "shared")
    fresh = run(4, tmp_path / "fresh")
    for path, data in kept.items():
        assert pathlib.Path(path + ".kept").read_bytes() == data
    assert pathlib.Path(second.csv_path).read_bytes() == pathlib.Path(fresh.csv_path).read_bytes()
    assert json.loads(pathlib.Path(second.manifest_path).read_text())["rows"] == 4 * 2


# ---------------------------------------------------------------------------
# the sweep table
# ---------------------------------------------------------------------------

_ALL, _COMPLEX = [[1, 1], [2, 1], [1, 2], [2, 2]], [[1, 1], [2, 1], [1, 2]]


class TestSweepTable:
    """Each sweep suite is one ``cli._SWEEPS`` record, and ``SUITES`` is built from it."""

    def test_randomized_suites_are_the_table(self):
        assert [name for name, sd in SUITES.items() if sd.randomized] == list(cli._SWEEPS)

    def test_records_are_well_formed(self):
        for sweep in cli._SWEEPS.values():
            assert len(sweep.checks) == len(sweep.columns)
            assert sweep.flavor in jets.FLAVORS

    def test_registry_contents(self):
        common = {"eps": 0.1, "a": 1.0, "b": 1.0}
        defaults = {
            "det-law": dict(common, shapes=_ALL, draws=100, points=20, tolerance=1e-10),
            "w-psd": dict(common, shapes=_ALL, draws=100, points=20, tolerance=1e-10),
            "q-sign": dict(common, shapes=[[1, 1]], draws=100, points=1, tolerance=1e-8),
            "evolution-identity": dict(common, shapes=_COMPLEX, draws=100, points=1, tolerance=1e-8),
            "heat-identity": dict(common, shapes=_COMPLEX, draws=100, points=1, tolerance=1e-10),
            "real-complexify": dict(common, shapes=_ALL, draws=50, points=2, tolerance=1e-10),
        }
        assert list(SUITES) == list(defaults) + ["flow-convergence", "oscillation-decay", "rigidity"]
        for name, want in defaults.items():
            sd = SUITES[name]
            assert sd.randomized and sd.runner is cli._run_sweep and sd.post is cli._post_sweep
            assert {key: default for key, (_, default) in sd.fields.items()} == want
        for name, runner in [
            ("flow-convergence", cli._run_flow_convergence),
            ("oscillation-decay", cli._run_oscillation),
            ("rigidity", cli._run_rigidity),
        ]:
            sd = SUITES[name]
            assert not sd.randomized and sd.runner is runner


def test_readme_suites_table_matches_the_registry():
    # the README's suites table: every suite, whether it is seeded, and each
    # sweep's default shapes x draws x points and tolerance
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` +\| (yes|no) +\| (.*) \|$", readme, re.M)
    assert [name for name, _, _ in rows] == list(SUITES)
    sizes = re.compile(r"\((\d+) shapes? × (\d+) draws × (\d+) points?, (≤ |≥ −)(\S+)\)$")
    for name, seeded, checks in rows:
        sd = SUITES[name]
        assert seeded == ("yes" if sd.randomized else "no"), name
        if name in cli._SWEEPS:
            sweep = cli._SWEEPS[name]
            shapes, draws, points, relation, tolerance = sizes.search(checks).groups()
            assert (int(shapes), int(draws), int(points)) == (len(sweep.shapes), sweep.draws, sweep.points), name
            assert float(tolerance) == sweep.tolerance, name
            assert relation == ("≥ −" if sweep.checks[0].startswith("min_") else "≤ "), name


# ---------------------------------------------------------------------------
# the sweep pool
# ---------------------------------------------------------------------------


class TestSweepPool:
    """One pool per process: reused across sweeps, replaced on a new worker count or a dead worker."""

    BODY = {"suite": "det-law", "seed": 5, "draws": 4 * cli._BLOCK + 1, "points": 2}

    def run(self, tmp_path, name, workers):
        cfg = ExperimentConfig.from_dict({**self.BODY, "out": str(tmp_path / name)})
        return run_experiment(cfg, workers=workers)

    def test_consecutive_sweeps_run_on_the_same_workers(self, tmp_path, monkeypatch, fresh_sweep_pool):
        monkeypatch.setattr(cli, "_sweep_block_rows", _pid_rows)
        pids = [{r[4] for r in self.run(tmp_path, name, 2).rows} for name in ("a", "b")]
        assert len(pids[0]) == 2 and os.getpid() not in pids[0]
        assert pids[1] == pids[0]

    def test_worker_count_changes_replace_the_pool_and_keep_bytes(self, tmp_path, monkeypatch, fresh_sweep_pool):
        monkeypatch.setattr(cli, "_sweep_block_rows", _payload_rows)
        serial = self.run(tmp_path, "w1", 1)
        assert serial.error is None and cli._pool is None
        expected = pathlib.Path(serial.csv_path).read_bytes()
        pools = []
        for i, workers in enumerate((2, 3, 2)):
            r = self.run(tmp_path, f"run{i}", workers)
            assert r.error is None
            assert pathlib.Path(r.csv_path).read_bytes() == expected
            assert cli._pool[0] == workers
            pools.append(cli._pool[1])
        assert len({id(p) for p in pools}) == 3
        # a replaced pool's workers were stopped by message and joined
        for replaced in pools[:2]:
            assert [p.exitcode for p in replaced.procs] == [0] * len(replaced.procs)

    def test_a_block_error_fails_one_run_and_the_same_workers_serve_the_next(
        self, tmp_path, monkeypatch, fresh_sweep_pool
    ):
        monkeypatch.setattr(cli, "_sweep_block_rows", _failing_rows)
        failed = self.run(tmp_path, "failed", 2)
        assert not failed.passed and failed.error == "ClassExit: block at draw 0 left the class"
        assert json.loads(pathlib.Path(failed.manifest_path).read_text())["error"] == failed.error
        pool = cli._pool[1]
        pids = [p.pid for p in pool.procs]
        # another seed, so a reply left over from the failed run would show in the bytes
        monkeypatch.setattr(cli, "_sweep_block_rows", _payload_rows)
        blobs = []
        for workers in (1, 2):
            cfg = ExperimentConfig.from_dict({**self.BODY, "seed": 6, "out": str(tmp_path / f"w{workers}")})
            r = run_experiment(cfg, workers=workers)
            assert r.error is None
            blobs.append(pathlib.Path(r.csv_path).read_bytes())
        assert blobs[0] == blobs[1]
        assert cli._pool[1] is pool and [p.pid for p in pool.procs] == pids

    def test_a_sweep_abandoned_in_flight_drops_the_pool(self, tmp_path, monkeypatch, fresh_sweep_pool):
        monkeypatch.setattr(cli, "_sweep_block_rows", _pid_rows)
        pool = cli._sweep_pool(2)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        # the first wait comes once every worker holds a block
        monkeypatch.setattr(cli, "wait", interrupted)
        cfg = ExperimentConfig.from_dict({**self.BODY, "out": str(tmp_path / "abandoned")})
        with pytest.raises(KeyboardInterrupt):
            cli._run_sweep(cfg, 2)
        assert cli._pool is None
        assert not any(p.is_alive() for p in pool.procs)
        monkeypatch.setattr(cli, "wait", multiprocessing.connection.wait)
        assert self.run(tmp_path, "next", 2).error is None

    def test_killed_worker_fails_one_run_and_the_next_recovers(self, tmp_path, monkeypatch, fresh_sweep_pool):
        monkeypatch.setattr(cli, "_sweep_block_rows", _pid_rows)
        first = self.run(tmp_path, "first", 2)
        assert first.error is None
        victim = int(first.rows[0][4])
        os.kill(victim, signal.SIGKILL)
        # the pool finds the death at its next run, whether or not the kill has landed by then
        broken = self.run(tmp_path, "broken", 2)
        assert not broken.passed and "BrokenProcessPool" in broken.error
        manifest = json.loads(pathlib.Path(broken.manifest_path).read_text())
        assert "BrokenProcessPool" in manifest["error"]
        assert cli._pool is None
        with pytest.raises(ProcessLookupError):  # joined, so reaped
            os.kill(victim, 0)
        recovered = self.run(tmp_path, "recovered", 2)
        assert recovered.error is None
        assert not {r[4] for r in recovered.rows} & {r[4] for r in first.rows}

    def test_blocks_go_out_heaviest_first_and_rows_stay_in_block_order(self, tmp_path, monkeypatch, fresh_sweep_pool):
        # shapes from large to small, each cut into two full blocks and a partial one
        shapes = [[2, 2], [1, 2], [1, 1]]
        body = {"suite": "det-law", "seed": 9, "shapes": shapes, "draws": 6 * cli._BLOCK + 5, "points": 2}
        parent, sent = os.getpid(), []
        send = multiprocessing.connection.Connection.send

        def recording_send(conn, obj):
            if os.getpid() == parent and obj is not None:
                sent.append(obj[1])
            send(conn, obj)

        def cost(payload):  # the jet coefficients of the block: order-2 jets in k + l variables
            _, k, l, _, _, _, _, _, count, points = payload
            return count * max(points, 1) * math.comb(k + l + 2, 2)

        monkeypatch.setattr(multiprocessing.connection.Connection, "send", recording_send)
        ids = [
            (draw, k, l, i)
            for (k, l), count in zip(shapes, cli._shape_draw_counts(body["draws"], len(shapes)))
            for draw in range(count)
            for i in range(2)
        ]
        blobs = set()
        for workers in (1, 2, 3):
            sent.clear()
            r = run_experiment(ExperimentConfig.from_dict({**body, "out": str(tmp_path / f"w{workers}")}), workers=workers)
            assert r.error is None
            assert [row[:4] for row in r.rows] == ids
            blobs.add(pathlib.Path(r.csv_path).read_bytes())
            if workers > 1:
                # heaviest first; of equal costs, the later block (shape index, then first draw)
                assert len(sent) == 9
                assert sent == sorted(sent, key=lambda p: (cost(p), p[6], p[7]), reverse=True)
                assert [cost(p) for p in sent[:workers]] == sorted(map(cost, sent), reverse=True)[:workers]
        assert len(blobs) == 1

    def test_a_forked_child_starts_its_own_pool(self, tmp_path, fresh_sweep_pool):
        body = {"suite": "det-law", "seed": 5, "draws": 40, "points": 2}

        def run(name):
            return run_experiment(ExperimentConfig.from_dict({**body, "out": str(tmp_path / name)}), workers=2)

        first = run("parent")
        assert first.error is None
        expected = pathlib.Path(first.csv_path).read_bytes()
        pool = cli._pool[1]
        child = os.fork()
        if child == 0:  # exits 0 only if its pooled sweep ends, on its own pool, with the parent's bytes
            code = 1
            try:
                signal.alarm(20)  # SIGALRM's default action ends the child
                r = run("child")
                same = r.error is None and pathlib.Path(r.csv_path).read_bytes() == expected
                own = cli._pool[1] is not pool and pool.owner != os.getpid()
                cli._shutdown_pool()
                code = 0 if same and own else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(child, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
                pytest.fail("the forked child's pooled sweep never finished")
            time.sleep(0.02)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
        # the parent's pool is untouched and still serves it
        again = run("again")
        assert again.error is None and pathlib.Path(again.csv_path).read_bytes() == expected
        assert cli._pool[1] is pool and all(p.is_alive() for p in pool.procs)

    def test_a_forked_child_exits_quietly_and_leaves_the_parent_pool(self, tmp_path):
        # a fresh interpreter, so that the child's sys.exit runs every exit
        # hook: multiprocessing's would try to join the parent's workers
        launcher = (
            "import json, os, pathlib, sys\n"
            "from tma import cli\n"
            "from tma.cli import ExperimentConfig, run_experiment\n"
            "out = pathlib.Path(sys.argv[1])\n"
            "def run(name):\n"
            "    body = {'suite': 'det-law', 'seed': 3, 'draws': 40, 'points': 2, 'out': str(out / name)}\n"
            "    return pathlib.Path(run_experiment(ExperimentConfig.from_dict(body), workers=2).csv_path).read_bytes()\n"
            "first = run('parent')\n"
            "pool = cli._pool[1]\n"
            "sys.stdout.flush()\n"
            "sys.stderr.flush()\n"
            "child = os.fork()\n"
            "if child == 0:\n"
            "    os.dup2(os.open(out / 'child.err', os.O_WRONLY | os.O_CREAT | os.O_TRUNC), 2)\n"
            "    sys.exit(0)\n"
            "_, status = os.waitpid(child, 0)\n"
            "alive = all(p.is_alive() for p in pool.procs)\n"
            "same = run('again') == first and cli._pool[1] is pool\n"
            "print(json.dumps({'status': os.waitstatus_to_exitcode(status), 'alive': alive, 'same': same}))\n"
        )
        res = subprocess.run(
            [sys.executable, "-c", launcher, str(tmp_path)],
            capture_output=True, text=True, env=checkout_env(), timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "child.err").read_text() == ""
        assert json.loads(res.stdout) == {"status": 0, "alive": True, "same": True}

    def test_pooled_cli_run_exits(self, tmp_path):
        # the pool outlives the run; a pool that kept the interpreter from
        # exiting would hit the timeout, and one whose workers outlived it
        # would leave their PIDs in use
        launcher = (
            "import sys\n"
            "from tma import cli\n"
            "start = cli._SweepPool.__init__\n"
            "def spy(pool, workers):\n"
            "    start(pool, workers)\n"
            "    print('workers', *(p.pid for p in pool.procs), file=sys.stderr, flush=True)\n"
            "cli._SweepPool.__init__ = spy\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        cfg = write_json(tmp_path, "cfg.json", {"suite": "q-sign", "seed": 2, "draws": 2 * cli._BLOCK + 1})
        res = subprocess.run(
            [sys.executable, "-c", launcher, "run", "--config", cfg, "--out", str(tmp_path), "--workers", "2"],
            capture_output=True, text=True, env=checkout_env(), timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "q-sign.csv").exists()
        pids = [int(p) for line in res.stderr.splitlines() if line.startswith("workers ") for p in line.split()[1:]]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


# ---------------------------------------------------------------------------
# function-spec ingestion
# ---------------------------------------------------------------------------


class TestIngestion:
    def test_roundtrip_is_byte_stable(self, tmp_path):
        spec = perturbed_flow_spec(1.0, 1.0, 0.05)
        path = tmp_path / "fn.json"
        path.write_text(spec.canonical_json())
        back = ingest_function_spec(str(path))
        assert back.canonical_json() == path.read_text()

    def test_unknown_atom_is_reported_with_field_path(self, tmp_path):
        body = json.loads(perturbed_flow_spec(1.0, 1.0, 0.05).canonical_json())
        body["terms"][1]["term"]["fn"] = "tan"
        path = write_json(tmp_path, "fn.json", body)
        with pytest.raises(UnknownAtom, match="tan"):
            ingest_function_spec(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "fn.json"
        path.write_text('{"kind": "sum",,}')
        with pytest.raises(ParseError, match=r"fn\.json:1:"):
            ingest_function_spec(path.as_posix())

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_function_spec(str(tmp_path / "absent.json"))

    def test_ensemble_members_reingest_and_pass_membership(self, tmp_path):
        es = EnsembleSpec(k=1, l=1, eps=0.1, seed=5)
        member = draw_member(es, 0)
        path = tmp_path / "member.json"
        path.write_text(member.canonical_json())
        back = ingest_function_spec(str(path))
        assert back.canonical_json() == member.canonical_json()
        lam, big = es.guaranteed_bounds()
        cloud = default_cloud(back.nvars, halfwidth=1.0, grid_per_axis=5, n_quasi=50)
        assert class_membership(back, cloud, lam, big).member


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------


class TestCommandLine:
    def test_run_exit_zero_on_pass(self, tmp_path):
        cfg = write_json(
            tmp_path, "cfg.json", {"suite": "det-law", "draws": 4, "points": 2, "seed": 1}
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "det-law.csv").exists()
        assert (tmp_path / "det-law-manifest.json").exists()

    def test_run_exit_one_on_assertion_failure(self, tmp_path):
        cfg = write_json(
            tmp_path, "cfg.json",
            {"suite": "det-law", "draws": 2, "points": 1, "seed": 1, "tolerance": 1e-300},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_run_exit_two_on_unknown_suite(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"suite": "no-such-suite", "seed": 1})
        assert main(["run", "--config", cfg]) == 2
        assert "suite" in capsys.readouterr().err

    def test_run_exit_two_on_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_validate_subcommand(self, tmp_path, capsys):
        good = write_json(tmp_path, "good.json", {"suite": "rigidity", "nodes": 17})
        assert main(["validate", "--config", good]) == 0
        ok, params = capsys.readouterr().out.splitlines()
        assert ok.startswith("config ok") and "rigidity" in ok
        assert params == json.dumps(load_config(good).params, sort_keys=True)
        assert json.loads(params)["nodes"] == 17 and json.loads(params)["det_tol"] == 1e-9
        bad = write_json(tmp_path, "bad.json", {"suite": "rigidity", "nodes": -1})
        assert main(["validate", "--config", bad]) == 2
        assert "nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["tma", "tma.cli"])
    def test_python_dash_m_runs_without_runpy_warning(self, tmp_path, module):
        good = write_json(tmp_path, "good.json", {"suite": "rigidity"})
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
             "validate", "--config", good],
            capture_output=True, text=True, env=checkout_env(), timeout=120,
        )
        assert res.returncode == 0, res.stderr
        assert "config ok" in res.stdout

    def test_eps_beyond_the_class_guarantee_exits_two_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"suite": "det-law", "seed": 1, "eps": 3.0})
        assert main(["validate", "--config", cfg]) == 2
        assert "eps" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "eps" in capsys.readouterr().err
        assert not out.exists()

    # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads back as floats, and
    # integers of any size; NaN guess_eps used to run and pass with the perturbation dropped
    @pytest.mark.parametrize("body, key", [
        ({"suite": "det-law", "seed": 1, "a": math.inf}, "a"),
        ({"suite": "oscillation-decay", "amplitude": math.nan}, "amplitude"),
        ({"suite": "rigidity", "guess_eps": math.nan}, "guess_eps"),
        ({"suite": "rigidity", "mode": [2.0, -math.inf]}, "mode[1]"),
        ({"suite": "oscillation-decay", "modes": [[1.0, 1.0], [math.nan, 1.0]]}, "modes[1][0]"),
        ({"suite": "flow-convergence", "time_order_min": -math.inf}, "time_order_min"),
        ({"suite": "rigidity", "det_tol": 10**400}, "det_tol"),
    ], ids=["sweep_inf_a", "nan_amplitude", "nan_guess_eps", "inf_mode", "nan_modes_entry", "inf_order_bound",
            "integer_past_float_range"])
    def test_non_finite_numbers_exit_two_and_write_nothing(self, tmp_path, capsys, body, key):
        cfg = write_json(tmp_path, "cfg.json", body)
        assert main(["validate", "--config", cfg]) == 2
        assert f"{key}: must be finite" in capsys.readouterr().err
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"{key}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_does_not_accept_missing_seed(self, tmp_path):
        cfg = write_json(tmp_path, "cfg.json", {"suite": "q-sign", "draws": 2})
        assert main(["validate", "--config", cfg]) == 2

    def test_spec_check_prints_canonical_json(self, tmp_path, capsys):
        spec = perturbed_flow_spec(1.0, 2.0, 0.1)
        path = tmp_path / "fn.json"
        path.write_text(json.dumps(json.loads(spec.canonical_json()), indent=3))
        assert main(["spec", "--check", str(path)]) == 0
        assert capsys.readouterr().out.strip() == spec.canonical_json()

    def test_spec_check_rejects_unknown_atom(self, tmp_path, capsys):
        body = json.loads(perturbed_flow_spec(1.0, 1.0, 0.05).canonical_json())
        body["terms"][1]["term"]["fn"] = "tan"
        path = write_json(tmp_path, "fn.json", body)
        assert main(["spec", "--check", path]) == 2
        assert "tan" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_spec_check_rejects_a_non_finite_number(self, tmp_path, capsys, bad):
        path = tmp_path / "fn.json"
        path.write_text('{"kind": "quad", "matrix": [[%s]], "linear": [0.0], "constant": 0.0}' % bad)
        assert main(["spec", "--check", str(path)]) == 2
        assert "expr.matrix[0][0]: expected a finite number" in capsys.readouterr().err

    def test_workers_flag_must_be_positive(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"suite": "det-law", "seed": 1})
        assert main(["run", "--config", cfg, "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_workers_env_default(self, tmp_path, monkeypatch):
        cfg = write_json(
            tmp_path, "cfg.json", {"suite": "det-law", "draws": 4, "points": 1, "seed": 1}
        )
        monkeypatch.setenv("TMA_WORKERS", "2")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "env")]) == 0
        monkeypatch.setenv("TMA_WORKERS", "zero")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "env2")]) == 2

    def test_cli_workers_output_matches_serial(self, tmp_path):
        cfg = write_json(
            tmp_path, "cfg.json", {"suite": "q-sign", "draws": 6, "seed": 42}
        )
        out1, out2 = str(tmp_path / "s"), str(tmp_path / "p")
        assert main(["run", "--config", cfg, "--out", out1, "--workers", "1"]) == 0
        assert main(["run", "--config", cfg, "--out", out2, "--workers", "2"]) == 0
        a = pathlib.Path(out1, "q-sign.csv").read_bytes()
        b = pathlib.Path(out2, "q-sign.csv").read_bytes()
        assert a == b
