"""Experiment orchestration: JSON configs in, CSV sweeps and manifests out.

The ``tma`` command drives the package's verification suites from declarative
configs.  Each run writes one CSV of per-row measurements plus one JSON
manifest recording the config echo, library versions, wall time, and every
assertion with its observed value — the manifest is written even when a suite
fails, so a red run is as inspectable as a green one.

Each suite is one record of the registry ``SUITES``, which names every
config field once, with its validator and default.  A randomized sweep suite
is defined by its record in ``_SWEEPS``: its ``SUITES`` record and the sweep
runner both read it.

Determinism contract: the same config and seed produce byte-identical CSV no
matter how many workers execute the sweep.  A sweep is cut into blocks of up
to ``_BLOCK`` consecutive draws of one shape, by draw index alone, and the
blocks' rows are concatenated in block order, never in completion order.  A
block's rows come from one stacked pass over its draws, yet every row is a
pure function of (suite, shape, seed, draw index): it does not depend on the
block size or on which other draws share the pass.

A sweep with more than one worker and more than one block runs on the
process's worker pool: forked workers, each on its own pipe, and a parent
loop that hands each free worker the waiting block with the most jet
coefficients to evaluate (longest processing time first).  The parent runs
no block and no thread.  The first such sweep starts the pool; it lives for
the process and is reused by every later sweep with the same worker count, so
its workers keep the gather caches their earlier blocks built.  Another
worker count replaces it.  A block's exception fails its run only, once the
blocks in flight are back; a pool whose worker died, or whose sweep was
abandoned in flight, is dropped.  A process forked from the pool's owner
starts its own pool and leaves the owner's workers alone, at its exit too;
the owner stops and joins its workers at exit.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import multiprocessing
import operator
import os
import platform
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from multiprocessing.connection import Connection, wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .errors import AmplitudeTooLarge, ConfigInvalid, ParseError, UnknownAtom
from .estimates import (
    CylinderSpec,
    OSCILLATION_CSV_HEADER,
    flow_quantities,
    oscillation_csv_rows,
    oscillation_ladder,
    rigidity_probe,
)
from .evolution import FlowBlock, complexification_scaling, complexify_block
from .funclass import EnsembleSpec, draw_block
from .jets import ExpressionSpec, SpecBlock, coordinate_count
from .legendre import LegendreBlock
from .solver import (
    BoxGrid,
    evaluate_on_grid,
    flow_from_spec,
    periodic_base_for,
    perturbed_flow_spec,
    reference_flow_spec,
    run_flow,
    solve_elliptic,
    spatial_order_estimate,
    time_order_estimate,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "SUITES",
    "ingest_function_spec",
    "load_config",
    "main",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# field validators
# ---------------------------------------------------------------------------


def _v_int(key: str, v, least: int) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"{key}: expected an integer, got {v!r}")
    if v < least:
        raise ConfigInvalid(f"{key}: must be >= {least}, got {v}")
    return v


def _v_posint(key: str, v) -> int:
    return _v_int(key, v, 1)


def _v_nodes(key: str, v) -> int:
    # a framed grid needs 2*frame + 3 nodes per axis at the default frame 2
    return _v_int(key, v, 7)


def _v_float(key: str, v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigInvalid(f"{key}: expected a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:  # NaN, +-Infinity (JSON reads them as floats), integers past the float range
        raise ConfigInvalid(f"{key}: must be finite, got {v}")
    return float(v)


def _v_pos(key: str, v) -> float:
    x = _v_float(key, v)
    if not x > 0.0:
        raise ConfigInvalid(f"{key}: must be > 0, got {v}")
    return x


def _v_nonneg(key: str, v) -> float:
    x = _v_float(key, v)
    if x < 0.0:
        raise ConfigInvalid(f"{key}: must be >= 0, got {v}")
    return x


def _v_shapes(key: str, v) -> List[List[int]]:
    if not isinstance(v, list) or not v:
        raise ConfigInvalid(f"{key}: expected a non-empty list of [k, l] pairs, got {v!r}")
    out = []
    for i, item in enumerate(v):
        ok = (
            isinstance(item, list)
            and len(item) == 2
            and all(not isinstance(c, bool) and isinstance(c, int) and c >= 1 for c in item)
        )
        if not ok:
            raise ConfigInvalid(f"{key}[{i}]: expected a pair of integers >= 1, got {item!r}")
        out.append([item[0], item[1]])
    return out


def _v_pair(key: str, v) -> List[float]:
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigInvalid(f"{key}: expected a pair of numbers, got {v!r}")
    return [_v_float(f"{key}[{i}]", c) for i, c in enumerate(v)]


def _v_modes(key: str, v) -> List[List[float]]:
    if not isinstance(v, list) or not v:
        raise ConfigInvalid(f"{key}: expected a non-empty list of [kx, ky] pairs, got {v!r}")
    return [_v_pair(f"{key}[{i}]", item) for i, item in enumerate(v)]


def _v_ladder(key: str, v) -> List[float]:
    if not isinstance(v, list) or len(v) < 3:
        raise ConfigInvalid(f"{key}: expected a list of at least 3 radii, got {v!r}")
    vals = [_v_pos(f"{key}[{i}]", c) for i, c in enumerate(v)]
    if any(nxt >= cur for cur, nxt in zip(vals, vals[1:])):
        raise ConfigInvalid(f"{key}: radii must be strictly decreasing, got {vals}")
    return vals


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteDef:
    """One runnable suite: each config field's ``(validator, default)``, the runner, a cross-field check."""

    fields: Dict[str, Tuple[Callable, object]]
    runner: Callable
    post: Optional[Callable] = None

    @property
    def randomized(self) -> bool:
        """Whether the suite draws from seeded ensembles, and so needs a seed: the sweeps do."""
        return self.runner is _run_sweep


def _post_sweep(params: Dict[str, object]) -> None:
    # the ensemble states the amplitude rule; a sweep that breaks it is a config error
    try:
        EnsembleSpec(k=1, l=1, a=params["a"], b=params["b"], eps=params["eps"])
    except AmplitudeTooLarge as e:
        raise ConfigInvalid(f"eps: {e}") from e


def _post_oscillation(params: Dict[str, object]) -> None:
    if params["ladder"][0] > params["radius"]:
        raise ConfigInvalid(
            f"ladder: largest rung {params['ladder'][0]} exceeds radius {params['radius']}"
        )


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: suite name, seed, output directory, parameters.

    ``params`` holds the suite's full parameter set — defaults merged with the
    config file's overrides, every value type-checked.  ``seed`` is mandatory
    for randomized suites and ``None`` is only accepted for deterministic
    ones, so a loaded config is always runnable as-is.
    """

    suite: str
    seed: Optional[int]
    out: str
    params: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid(f"config: expected a JSON object, got {type(raw).__name__}")
        suite = raw.get("suite")
        if suite is None:
            raise ConfigInvalid("suite: required")
        if not isinstance(suite, str) or suite not in SUITES:
            raise ConfigInvalid(
                f"suite: unknown suite {suite!r}; expected one of {', '.join(sorted(SUITES))}"
            )
        sd = SUITES[suite]
        # a validator returns fresh lists, so no two configs share a default's
        params = {key: validate(key, default) for key, (validate, default) in sd.fields.items()}
        seed: Optional[int] = None
        out = "."
        for key, value in raw.items():
            if key == "suite":
                continue
            if key == "seed":
                seed = _v_int("seed", value, 0)
            elif key == "out":
                if not isinstance(value, str) or not value:
                    raise ConfigInvalid(f"out: expected a non-empty string, got {value!r}")
                out = value
            elif key in sd.fields:
                params[key] = sd.fields[key][0](key, value)
            else:
                raise ConfigInvalid(
                    f"{key}: not a recognized field for suite {suite!r} "
                    f"(known: {', '.join(sorted(sd.fields))})"
                )
        if sd.randomized and seed is None:
            raise ConfigInvalid(f"seed: required for randomized suite {suite!r}")
        if sd.post is not None:
            sd.post(params)
        return cls(suite=suite, seed=seed, out=out, params=params)


def load_config(path: str, seed: Optional[int] = None, out: Optional[str] = None) -> ExperimentConfig:
    """Read and validate a config file, folding in command-line overrides.

    Overrides are merged before validation, so ``--seed`` satisfies the
    seed-presence requirement of randomized suites exactly as a ``seed`` field
    in the file would.
    """
    with open(path, "r") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigInvalid(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if isinstance(raw, dict):
        if seed is not None:
            raw = {**raw, "seed": seed}
        if out is not None:
            raw = {**raw, "out": out}
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# assertions
# ---------------------------------------------------------------------------

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt, ">": operator.gt}


def _check(name: str, observed: float, relation: str, bound: float) -> Dict[str, object]:
    return {
        "name": name,
        "observed": float(observed),
        "relation": relation,
        "bound": float(bound),
        "passed": bool(_RELATIONS[relation](float(observed), float(bound))),
    }


# ---------------------------------------------------------------------------
# randomized sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Sweep:
    """One randomized sweep suite: its ensemble flavor, measured values, checks and defaults.

    ``values(block)`` gives the values of a drawn :class:`SpecBlock`, one
    row of ``columns`` per (draw, point) in draw-major order, from jets of
    ``order``.  ``checks`` names one assertion per column: it bounds the
    column's max by ``tolerance`` or, for a name starting ``min_``, its min
    from below by ``-tolerance``.
    """

    flavor: str
    order: int
    columns: Tuple[str, ...]
    values: Callable[[SpecBlock], np.ndarray]
    checks: Tuple[str, ...]
    shapes: List[List[int]]
    draws: int
    points: int
    tolerance: float


def _q_sign_values(block):
    flow = FlowBlock(block)
    return np.column_stack([flow.q_spectrum_max, flow.grouping_spectrum_max])


def _real_complexify_values(block):
    """Real route A against route B of the complexified members."""
    d = complexification_scaling(block.k, block.l)
    lhs = d @ FlowBlock(block).lhs @ d
    q = FlowBlock(complexify_block(block)).source
    return np.max(np.abs(lhs - q), axis=(-2, -1))


_SHAPES_ALL = [[1, 1], [2, 1], [1, 2], [2, 2]]
_SHAPES_COMPLEX = [[1, 1], [2, 1], [1, 2]]

# The one place a sweep suite is defined.  Every suite takes a whole drawn
# block in one stacked pass: the Legendre suites as a LegendreBlock, the flow
# suites as a FlowBlock.
_SWEEPS: Dict[str, _Sweep] = {
    "det-law": _Sweep("real", 2, ("residual",), lambda block: LegendreBlock(block).det_residual,
                      ("max_det_residual",), _SHAPES_ALL, 100, 20, 1e-10),
    "w-psd": _Sweep("real", 2, ("lambda_min",), lambda block: LegendreBlock(block).w_spectrum_min,
                    ("min_w_eigenvalue",), _SHAPES_ALL, 100, 20, 1e-10),
    "q-sign": _Sweep("complex", 4, ("q_lambda_max", "g1", "g2", "g3", "g4"), _q_sign_values,
                     ("max_q_eigenvalue",) + tuple(f"max_g{j}_eigenvalue" for j in range(1, 5)),
                     [[1, 1]], 100, 1, 1e-8),
    "evolution-identity": _Sweep("complex", 4, ("residual",),
                                 lambda block: FlowBlock(block).evolution_residual,
                                 ("max_evolution_residual",), _SHAPES_COMPLEX, 100, 1, 1e-8),
    "heat-identity": _Sweep("complex", 4, ("residual",),
                            lambda block: FlowBlock(block).heat_residual,
                            ("max_heat_residual",), _SHAPES_COMPLEX, 100, 1, 1e-10),
    "real-complexify": _Sweep("real", 4, ("entry_gap",), _real_complexify_values,
                              ("max_entry_gap",), _SHAPES_ALL, 50, 2, 1e-10),
}


# Draws per block.  Serial per-draw cost (ms, 2-core x86 machine) against the
# block size, for the flow suites (mean of the four): 1: 4.3, 2: 2.4, 4: 1.5,
# 8: 0.92, 12: 0.76, 16: 0.68, 24: 0.59, 48: 0.49; for the Legendre suites
# (mean of both over four shapes, 20 points a draw): 1: 0.33, 4: 0.21,
# 8: 0.17, 16: 0.14, 24: 0.14, 48: 0.13.  Past 16 the saving is small, while
# fewer and larger blocks spread worse over a worker pool.
_BLOCK = 16


def _sweep_block_rows(payload: Tuple) -> List[Tuple]:
    """Rows for a block of consecutive draws of one shape; pure function of the payload (picklable)."""
    suite, k, l, a, b, eps, seed, first, count, n_points = payload
    sweep = _SWEEPS[suite]
    es = EnsembleSpec(k=k, l=l, flavor=sweep.flavor, a=a, b=b, eps=eps, seed=seed)
    values = sweep.values(draw_block(es, first, count, n_points))
    ids = [(draw, k, l, i) for draw in range(first, first + count) for i in range(n_points)]
    return [row + tuple(v) for row, v in zip(ids, values.reshape(len(ids), -1).tolist())]


def _shape_draw_counts(total: int, n_shapes: int) -> List[int]:
    """Split ``total`` draws across shapes, remainder going to the earliest."""
    base, extra = divmod(total, n_shapes)
    return [base + (1 if i < extra else 0) for i in range(n_shapes)]


def _block_cost(payload: Tuple) -> int:
    """The jet coefficients a block evaluates: draws x points x the coefficients of one jet."""
    suite, k, l, _, _, _, _, _, count, n_points = payload
    sweep = _SWEEPS[suite]
    nvars = coordinate_count(k, l, sweep.flavor)
    return count * max(n_points, 1) * math.comb(nvars + sweep.order, sweep.order)


def _pool_worker(conn, inherited) -> None:
    """A pool worker's loop: run each ``(fn, payload)`` it is sent and send back ``(ok, rows or exception)``.

    ``None`` stops it, and so does a closed pipe.  It first closes the
    parent-side pipe ends it inherited (its own among them), so a parent that
    dies leaves it reading the end of its pipe, not waiting for ever.
    """
    for c in inherited:
        c.close()
    # a forked worker freezes the heap it inherited, so its collections
    # never walk those objects or write to (and so copy) their pages
    gc.freeze()
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task is None:
            return
        fn, payload = task
        try:
            reply = (True, fn(payload))
        except Exception as e:  # relayed to the parent, which raises it for the run
            reply = (False, e)
        conn.send(reply)


class _SweepPool:
    """Forked workers, each on its own duplex pipe, fed blocks heaviest first by one parent loop.

    No thread runs in the parent: ``run`` sends the waiting block with the
    largest :func:`_block_cost` to each free worker and waits on the pipes
    and the workers' sentinels.  The pool belongs to the process that
    started it; a process forked from that one never touches it.
    """

    def __init__(self, workers: int):
        ctx = multiprocessing.get_context("fork")
        self.owner = os.getpid()
        self.conns: List[Connection] = []
        self.procs = []
        self.busy: Dict[Connection, int] = {}
        self.broken = False
        for _ in range(workers):
            conn, child = ctx.Pipe()
            self.conns.append(conn)
            proc = ctx.Process(target=_pool_worker, args=(child, list(self.conns)))
            proc.start()
            child.close()
            self.procs.append(proc)

    @property
    def idle(self) -> bool:
        """Whether the pool can serve another sweep: no worker found dead and none holding a block."""
        return not self.broken and not self.busy

    def run(self, fn: Callable, payloads: Sequence[Tuple]) -> List:
        """``[fn(p) for p in payloads]``, computed by the workers.

        An exception a block raised is raised here once every block in flight
        has come back, so the pool stays idle and usable.  A worker that died
        raises ``BrokenProcessPool`` and leaves the pool broken.
        """
        # ascending, so pop() takes the heaviest block, and of equal costs the later payload
        waiting = sorted(range(len(payloads)), key=lambda i: (_block_cost(payloads[i]), i))
        results: List = [None] * len(payloads)
        free = list(self.conns)
        sentinels = [proc.sentinel for proc in self.procs]
        failure: Optional[BaseException] = None
        try:
            while self.busy or (waiting and failure is None):
                while free and waiting and failure is None:
                    conn = free.pop()
                    i = waiting.pop()
                    conn.send((fn, payloads[i]))
                    self.busy[conn] = i
                ready = wait(list(self.busy) + sentinels)
                if any(r in sentinels for r in ready):
                    self.broken = True
                    raise BrokenProcessPool("a worker of the sweep pool exited")
                for conn in ready:
                    ok, value = conn.recv()
                    i = self.busy.pop(conn)
                    free.append(conn)
                    if ok:
                        results[i] = value
                    elif failure is None:
                        failure = value
        except (EOFError, OSError) as e:  # a pipe whose worker is gone
            self.broken = True
            raise BrokenProcessPool("a worker of the sweep pool died") from e
        if failure is not None:
            raise failure
        return results

    def close(self) -> None:
        """Stop and join every worker: an idle one by a stop message, one still holding a block by a signal.

        A closed pipe alone would not end a worker: any process forked from
        this one while the pool lived (a later worker before it closes what
        it inherited, a caller's ``os.fork``) holds a copy of the pipe's
        parent end, so the worker would not see the end of its pipe.
        """
        for conn, proc in zip(self.conns, self.procs):
            if conn in self.busy:
                proc.terminate()
            else:
                try:
                    conn.send(None)
                except OSError:  # its worker is dead already
                    pass
        for conn, proc in zip(self.conns, self.procs):
            proc.join()
            conn.close()
        self.busy.clear()


# The sweep pool of this process, as (worker count, pool), or None.
_pool: Optional[Tuple[int, _SweepPool]] = None


def _sweep_pool(workers: int) -> _SweepPool:
    """The process's sweep pool with ``workers`` workers, started on first use.

    A request for another worker count replaces the pool, and so does a
    request from a process forked from the pool's owner: the child starts
    its own and leaves the parent's workers and pipes alone.
    """
    global _pool
    if _pool is not None and (_pool[0] != workers or _pool[1].owner != os.getpid()):
        _shutdown_pool()
    if _pool is None:
        _pool = (workers, _SweepPool(workers))
    return _pool[1]


def _shutdown_pool() -> None:
    """Stop and join the sweep pool's workers, if this process owns a pool; the next pooled sweep starts afresh.

    A process forked from the owner only forgets the pool and the record of its workers
    that it inherited, which multiprocessing's exit hook would try to join.
    """
    global _pool
    if _pool is not None:
        if _pool[1].owner == os.getpid():
            _pool[1].close()
        else:
            multiprocessing.process._children.difference_update(_pool[1].procs)
    _pool = None


# Runs before multiprocessing's own exit hook, which would join the workers
# without stopping them (in the owner) or fail to (in a forked child).
atexit.register(_shutdown_pool)


def _run_sweep(cfg: ExperimentConfig, workers: int):
    p = cfg.params
    shapes = p["shapes"]
    counts = _shape_draw_counts(p["draws"], len(shapes))
    payloads = [
        (cfg.suite, k, l, p["a"], p["b"], p["eps"], cfg.seed + si, first, min(_BLOCK, count - first), p["points"])
        for si, ((k, l), count) in enumerate(zip(shapes, counts))
        for first in range(0, count, _BLOCK)
    ]
    rows: List[Tuple] = []
    if workers <= 1 or len(payloads) <= 1:
        for payload in payloads:
            rows.extend(_sweep_block_rows(payload))
    else:
        # one pool per process: later sweeps with the same worker count reuse
        # it, and its workers keep the gather caches their earlier blocks built
        pool = _sweep_pool(workers)
        try:
            chunks = pool.run(_sweep_block_rows, payloads)
        except BaseException:
            # a block's own error leaves the pool idle; a dead worker or a
            # sweep abandoned in flight drops it, and the next run starts afresh
            if not pool.idle:
                _shutdown_pool()
            raise
        for chunk in chunks:
            rows.extend(chunk)
    sweep, tol = _SWEEPS[cfg.suite], p["tolerance"]
    assertions = []
    for j, name in enumerate(sweep.checks, start=4):
        column = [r[j] for r in rows]
        if name.startswith("min_"):
            assertions.append(_check(name, min(column), ">=", -tol))
        else:
            assertions.append(_check(name, max(column), "<=", tol))
    return ("draw", "shape_k", "shape_l", "point") + sweep.columns, rows, assertions


# ---------------------------------------------------------------------------
# deterministic suites
# ---------------------------------------------------------------------------


def _run_flow_convergence(cfg: ExperimentConfig, workers: int):
    p = cfg.params
    rows: List[Tuple] = []

    # exact-transport checks: the planar flavor, then the paired one on the 4-axis grid
    for flavor, nodes, dt in (("real", p["nodes_real"], p["dt_real"]),
                              ("complex11", p["nodes_complex"], p["dt_complex"])):
        spec = reference_flow_spec(p["a"], p["b"], flavor)
        grid = BoxGrid((-1.0,) * spec.nvars, (1.0,) * spec.nvars, (nodes,) * spec.nvars)
        f = run_flow(flow_from_spec(spec, grid, dt), p["steps"], scheme="rk4", snapshot_every=p["steps"])
        ii = grid.interior
        gap = f.slices[-1][ii] - evaluate_on_grid(spec, grid, time=f.times[-1])[ii]
        rows.append((f"per_step_error_{flavor}", float(np.abs(gap).max()) / p["steps"]))
    transport = [_check(name, err, "<=", p["tolerance"]) for name, err in rows]

    # measured orders on a rippled field with genuine time error
    ripple = perturbed_flow_spec(
        1.0, 1.0, 0.1, modes=((1.0, 1.0), (2.0, -1.0)), weights=(1.0, 0.5)
    )
    grid_t = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17))
    horizon = 8e-4 * 16
    t_rk4 = time_order_estimate(flow_from_spec(ripple, grid_t, 8e-4), horizon, scheme="rk4")
    t_semi = time_order_estimate(
        flow_from_spec(ripple, grid_t, 8e-4), horizon, scheme="semi-implicit"
    )
    rows.append(("time_order_rk4", t_rk4.order))
    rows.append(("time_order_semi_implicit", t_semi.order))
    sp = spatial_order_estimate(ripple, grid_t)
    rows.append(("spatial_ratio", sp.ratio))
    rows.append(("spatial_order", sp.order))

    assertions = transport + [
        _check("time_order_rk4", t_rk4.order, ">=", p["time_order_min"]),
        _check("time_order_semi_min", t_semi.order, ">=", p["semi_order_min"]),
        _check("time_order_semi_max", t_semi.order, "<=", p["semi_order_max"]),
        _check("spatial_order_min", sp.order, ">=", p["space_order_min"]),
        _check("spatial_order_max", sp.order, "<=", p["space_order_max"]),
    ]
    return ("quantity", "value"), rows, assertions


def _run_oscillation(cfg: ExperimentConfig, workers: int):
    p = cfg.params
    n = p["nodes"]
    grid = BoxGrid((0.0, 0.0), (2.0 * math.pi, 2.0 * math.pi), (n, n), frame=0)
    modes = tuple(tuple(m) for m in p["modes"])
    spec = perturbed_flow_spec(p["a"], p["b"], p["amplitude"], modes=modes)
    f = flow_from_spec(spec, grid, p["dt"], policy=periodic_base_for(p["a"], p["b"]))
    f = run_flow(f, p["steps"], snapshot_every=p["snapshot_every"])

    center = tuple(p["center"])
    radius = p["radius"]
    crop_radius = radius + 2.0 * max(grid.spacing)
    quantities = flow_quantities(f, center=center, radius=crop_radius)
    cyl = CylinderSpec(
        center=center, time=f.times[-1], radius=radius, ladder=tuple(p["ladder"])
    )
    rep = oscillation_ladder(quantities, cyl)
    rows = oscillation_csv_rows([rep])

    worst_increase = 0.0
    for series in list(rep.per_quantity.values()) + [rep.totals]:
        for cur, nxt in zip(series, series[1:]):
            worst_increase = max(worst_increase, nxt - cur)
    total_fit = rep.fits["total"]
    assertions = [
        _check("max_ladder_increase", worst_increase, "<=", p["monotone_tol"]),
        _check("total_decay_exponent", total_fit.alpha, ">", p["alpha_min"]),
        _check("total_fit_residual", total_fit.residual, "<=", p["residual_max"]),
    ]
    return OSCILLATION_CSV_HEADER, rows, assertions


def _run_rigidity(cfg: ExperimentConfig, workers: int):
    p = cfg.params
    n = p["nodes"]
    grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (n, n), frame=2)
    boundary = reference_flow_spec(1.0, 1.0)
    guess = None
    if p["guess_eps"] > 0.0:
        # The ripple is windowed to vanish on the innermost frame layer: an
        # unwindowed ripple jumps by ~guess_eps against the frozen frame, and
        # that jump's second difference (~guess_eps/h^2) breaks convexity on
        # fine grids.
        ripple = perturbed_flow_spec(
            1.0, 1.0, p["guess_eps"], modes=[tuple(p["mode"])], weights=[1.0]
        )
        base = evaluate_on_grid(boundary, grid)
        window = np.ones(grid.shape)
        for axis, x in zip(grid.mesh(), grid.axes()):
            lo, hi = x[grid.frame - 1], x[-grid.frame]
            window *= np.sin(math.pi * np.clip((axis - lo) / (hi - lo), 0.0, 1.0))
        guess = base + window * (evaluate_on_grid(ripple, grid) - base)
    solved = solve_elliptic(boundary, grid, guess=guess)
    rep = rigidity_probe(solved)
    rows = [
        ("det_deviation", rep.det_deviation),
        ("entry_variation", rep.entry_variation),
        ("n_nodes", float(rep.n_nodes)),
    ]
    assertions = [
        _check("det_deviation", rep.det_deviation, "<=", p["det_tol"]),
        _check("entry_variation", rep.entry_variation, "<=", p["variation_tol"]),
    ]
    return ("quantity", "value"), rows, assertions


# ---------------------------------------------------------------------------
# the registry itself
# ---------------------------------------------------------------------------

SUITES: Dict[str, SuiteDef] = {
    **{
        name: SuiteDef(
            fields={
                "shapes": (_v_shapes, sweep.shapes),
                "draws": (_v_posint, sweep.draws),
                "points": (_v_posint, sweep.points),
                "eps": (_v_nonneg, 0.1),
                "a": (_v_pos, 1.0),
                "b": (_v_pos, 1.0),
                "tolerance": (_v_pos, sweep.tolerance),
            },
            runner=_run_sweep,
            post=_post_sweep,
        )
        for name, sweep in _SWEEPS.items()
    },
    "flow-convergence": SuiteDef(
        fields={
            "nodes_real": (_v_nodes, 65),
            "nodes_complex": (_v_nodes, 9),
            "dt_real": (_v_pos, 5e-5),
            "dt_complex": (_v_pos, 1e-3),
            "steps": (_v_posint, 4),
            "a": (_v_pos, math.e),
            "b": (_v_pos, 1.0),
            "tolerance": (_v_pos, 1e-10),
            "time_order_min": (_v_float, 3.5),
            "semi_order_min": (_v_float, 0.7),
            "semi_order_max": (_v_float, 1.5),
            "space_order_min": (_v_float, 1.8),
            "space_order_max": (_v_float, 2.2),
        },
        runner=_run_flow_convergence,
    ),
    "oscillation-decay": SuiteDef(
        fields={
            "nodes": (_v_nodes, 64),
            "amplitude": (_v_nonneg, 0.05),
            "a": (_v_pos, 1.0),
            "b": (_v_pos, 1.0),
            "modes": (_v_modes, [[1.0, 1.0]]),
            "dt": (_v_pos, 1.5e-3),
            "steps": (_v_posint, 200),
            "snapshot_every": (_v_posint, 1),
            "center": (_v_pair, [1.5, 1.2]),
            "radius": (_v_pos, 0.5),
            "ladder": (_v_ladder, [0.5, 0.25, 0.125]),
            "alpha_min": (_v_float, 0.0),
            "residual_max": (_v_pos, 0.1),
            "monotone_tol": (_v_nonneg, 0.0),
        },
        runner=_run_oscillation,
        post=_post_oscillation,
    ),
    "rigidity": SuiteDef(
        fields={
            "nodes": (_v_nodes, 33),
            "guess_eps": (_v_nonneg, 1e-3),
            "mode": (_v_pair, [2.0, 1.0]),
            "det_tol": (_v_pos, 1e-9),
            "variation_tol": (_v_pos, 1e-8),
        },
        runner=_run_rigidity,
    ),
}


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _cell_format(t: type) -> str:
    """A CSV cell's ``%``-conversion: a string as is, an integer (not a bool) in decimal, else a float to 17 digits."""
    if issubclass(t, str):
        return "%s"
    if issubclass(t, (int, np.integer)) and not issubclass(t, bool):
        return "%d"
    return "%.17g"


@lru_cache(maxsize=None)
def _row_format(types: Tuple[type, ...]) -> str:
    """One ``%``-format for a row of cells of these types."""
    return ",".join(map(_cell_format, types))


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        lines.append(_row_format(tuple(map(type, row))) % row)
    _write_new(path, "\n".join(lines) + "\n")


def _write_new(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as a new file, unlinking any file already there.

    Truncating a file and writing it again makes ext4 (delayed allocation,
    ``auto_da_alloc``) start its writeback at close, and the next rewrite
    then waits for that writeback: a sweep rerun into one output directory
    would wait on the disk every run.  A new file has no writeback in
    flight.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "w", newline="") as fh:
        fh.write(text)


@dataclass
class ExperimentResult:
    """Everything one run produced: rows, assertions, file paths, verdict."""

    suite: str
    rows: List[Tuple]
    assertions: List[Dict[str, object]]
    passed: bool
    error: Optional[str]
    csv_path: Optional[str]
    manifest_path: str


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Execute one suite; write its CSV and manifest; never raise past config.

    The manifest is written unconditionally once the config has validated —
    an assertion failure or a runner crash is recorded in it rather than
    leaving no trace.  Assertion failures are data (``passed: false``);
    only the orchestration itself reports exceptions, as the ``error`` field.

    A sweep with ``workers > 1`` and more than one block leaves the process's
    worker pool running when it returns: its ``workers`` processes stay alive
    for later sweeps and end only at interpreter exit (or when a sweep asks
    for another worker count).
    """
    if workers < 1:
        raise ConfigInvalid(f"workers: must be >= 1, got {workers}")
    sd = SUITES[cfg.suite]
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, f"{cfg.suite}.csv")
    manifest_path = os.path.join(cfg.out, f"{cfg.suite}-manifest.json")

    start = time.perf_counter()
    header: Optional[Tuple[str, ...]] = None
    rows: List[Tuple] = []
    assertions: List[Dict[str, object]] = []
    error: Optional[str] = None
    try:
        header, rows, assertions = sd.runner(cfg, workers)
    except Exception as e:  # recorded in the manifest, not propagated
        error = f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - start
    passed = error is None and all(a["passed"] for a in assertions)

    wrote_csv: Optional[str] = None
    if header is not None:
        _write_csv(csv_path, header, rows)
        wrote_csv = csv_path

    manifest = {
        "suite": cfg.suite,
        "config": {
            "suite": cfg.suite, "seed": cfg.seed, "out": cfg.out, "params": cfg.params,
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "package": __version__,
        },
        "workers": workers,
        "wall_time_s": round(wall, 6),
        "csv": os.path.basename(wrote_csv) if wrote_csv else None,
        "rows": len(rows),
        "assertions": assertions,
        "passed": passed,
    }
    if error is not None:
        manifest["error"] = error
    _write_new(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    return ExperimentResult(
        suite=cfg.suite,
        rows=rows,
        assertions=assertions,
        passed=passed,
        error=error,
        csv_path=wrote_csv,
        manifest_path=manifest_path,
    )


# ---------------------------------------------------------------------------
# function-spec ingestion
# ---------------------------------------------------------------------------


def ingest_function_spec(path: str) -> ExpressionSpec:
    """Load a function description from JSON with file/line diagnostics.

    Round-trip contract: for a file already in canonical form,
    ``ingest_function_spec(p).canonical_json()`` reproduces its bytes.
    """
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return ExpressionSpec.from_dict(obj)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tma",
        description="Run, validate, and inspect the package's verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a suite from a config file")
    run_p.add_argument("--config", required=True, help="experiment config (JSON)")
    run_p.add_argument("--seed", type=int, default=None, help="override/provide the seed")
    run_p.add_argument("--out", default=None, help="output directory (default: from config or '.')")
    run_p.add_argument(
        "--workers", type=int, default=None,
        help="parallel workers for sweeps (default: TMA_WORKERS or 1)",
    )

    val_p = sub.add_parser("validate", help="check a config file without running it")
    val_p.add_argument("--config", required=True, help="experiment config (JSON)")

    spec_p = sub.add_parser("spec", help="parse a function description and print canonical JSON")
    spec_p.add_argument("--check", required=True, metavar="PATH", help="function description (JSON)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: 0 all assertions pass, 1 assertion/runtime failure, 2 config error."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            cfg = load_config(args.config)
            print(f"config ok: suite {cfg.suite!r}, seed {cfg.seed}, out {cfg.out!r}")
            print(json.dumps(cfg.params, sort_keys=True))
            return 0
        if args.command == "spec":
            spec = ingest_function_spec(args.check)
            print(spec.canonical_json())
            return 0
        # run
        if args.workers is not None:
            workers = args.workers
        else:
            env = os.environ.get("TMA_WORKERS", "1")
            try:
                workers = int(env)
            except ValueError:
                raise ConfigInvalid(f"workers: TMA_WORKERS must be an integer, got {env!r}")
        if workers < 1:
            raise ConfigInvalid(f"workers: must be >= 1, got {workers}")
        cfg = load_config(args.config, seed=args.seed, out=args.out)
    except (ConfigInvalid, ParseError, UnknownAtom) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    result = run_experiment(cfg, workers=workers)
    for a in result.assertions:
        status = "pass" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['observed']:.6g} {a['relation']} {a['bound']:.6g}")
    if result.error is not None:
        print(f"error: {result.error}", file=sys.stderr)
    where = result.csv_path if result.csv_path else "(no CSV)"
    print(f"{result.suite}: {len(result.rows)} rows -> {where}; manifest {result.manifest_path}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
