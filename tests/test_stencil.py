"""The interior stencil against the whole-grid ``np.roll`` stencil it replaced.

The reference below is a copy of the earlier implementation: second and
mixed differences by ``np.roll`` over the whole grid, the flow value with a
NaN frame, RK4 stages on fresh copies of the slice, and the operator matrix
with rolled neighbour indices.  The solver's interior stencil, which works
on reused buffers, must reproduce it bit for bit on periodic and framed
grids, frame NaNs included; the matrix-free linearized operator must
reproduce the assembled matrix's products to rounding.  ``flow_quantities`` differences only a crop
and its ghost layer beyond the class check, so a cropped call must equal
the crop of the uncropped one, and a field that leaves the class only
outside a measured crop must still be refused, with the same messages.
"""

import math
import tracemalloc

import numpy as np
import pytest

from tma.errors import ClassExit
from tma.estimates import flow_quantities
from tma.solver import (
    CFL_CONSTANT,
    BoxGrid,
    FrozenFrame,
    PeriodicBase,
    _apply_frame,
    _Operator,
    _Stencil,
    _linearized_gammas,
    discrete_hessian,
    discrete_time_speed,
    evaluate_on_grid,
    flow_from_spec,
    flow_from_values,
    monitor_class,
    periodic_base_for,
    perturbed_flow_spec,
    reference_flow_spec,
    run_flow,
    solve_elliptic,
    step_parabolic,
)

# ---------------------------------------------------------------------------
# reference: the np.roll stencils
# ---------------------------------------------------------------------------


def _second_diff(u, axis, h):
    return (np.roll(u, -1, axis=axis) + np.roll(u, 1, axis=axis) - 2.0 * u) / (h * h)


def _mixed_diff(u, ax1, ax2, h1, h2):
    upp = np.roll(np.roll(u, -1, axis=ax1), -1, axis=ax2)
    upm = np.roll(np.roll(u, -1, axis=ax1), 1, axis=ax2)
    ump = np.roll(np.roll(u, 1, axis=ax1), -1, axis=ax2)
    umm = np.roll(np.roll(u, 1, axis=ax1), 1, axis=ax2)
    return (upp - upm - ump + umm) / (4.0 * h1 * h2)


def _ref_blocks(f, u):
    if isinstance(f.policy, PeriodicBase):
        p = u - f.policy.values_on(f.grid)
        d2 = [_second_diff(p, a, h) + c
              for a, (h, c) in enumerate(zip(f.grid.spacing, f.policy.coeffs))]
    else:
        d2 = [_second_diff(u, a, h) for a, h in enumerate(f.grid.spacing)]
    if f.flavor == "real":
        return d2[0], -d2[1]
    return 0.25 * (d2[0] + d2[2]), -0.25 * (d2[1] + d2[3])


def _flow_value_from_blocks(f, conv, conc):
    if f.grid.periodic:
        return np.log(conv) - np.log(conc)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(np.abs(conv)) - np.log(np.abs(conc))
    out[f.grid.frame_mask()] = np.nan
    ii = f.grid.interior
    out[ii] = np.log(conv[ii]) - np.log(conc[ii])
    return out


def _ref_speed(f, u):
    return _flow_value_from_blocks(f, *_ref_blocks(f, u))


def _ref_hessian(f, u):
    d, h = f.grid.dim, f.grid.spacing
    if isinstance(f.policy, PeriodicBase):
        p, base = u - f.policy.values_on(f.grid), np.diag(f.policy.coeffs)
    else:
        p, base = u, np.zeros((d, d))
    out = np.empty(f.grid.shape + (d, d))
    for a in range(d):
        out[..., a, a] = _second_diff(p, a, h[a]) + base[a, a]
        for b in range(a + 1, d):
            mixed = _mixed_diff(p, a, b, h[a], h[b]) + base[a, b]
            out[..., a, b] = mixed
            out[..., b, a] = mixed
    if not f.grid.periodic:
        out[f.grid.frame_mask()] = np.nan
    return out


def _ref_rk4(f, u, t):
    dt, ii = f.dt, f.grid.interior

    def advanced(k, scale, t_new):
        out = u.copy()
        out[ii] += scale * k[ii]
        _apply_frame(f, out, t_new)
        return out

    k1 = _ref_speed(f, u)
    k2 = _ref_speed(f, advanced(k1, 0.5 * dt, t + 0.5 * dt))
    k3 = _ref_speed(f, advanced(k2, 0.5 * dt, t + 0.5 * dt))
    k4 = _ref_speed(f, advanced(k3, dt, t + dt))
    unew = u.copy()
    unew[ii] += (dt / 6.0) * (k1[ii] + 2.0 * k2[ii] + 2.0 * k3[ii] + k4[ii])
    _apply_frame(f, unew, t + dt)
    return unew


def _ref_bound(f, u):
    """The explicit stability bound measured on the interior of the rolled blocks."""
    ii = f.grid.interior
    conv, conc = (block[ii] for block in _ref_blocks(f, u))
    lam = min(float(conv.min()), float(conc.min()))
    big = max(float(conv.max()), float(conc.max()))
    h = min(f.grid.spacing)
    return CFL_CONSTANT * h * h * lam / big


def _ref_run(f, steps, every):
    """Chained reference steps: stored slices, their times and the bounds."""
    u, t0 = f.slices[-1], f.times[-1]
    slices, times, bounds = [u], [t0], []
    for n in range(1, steps + 1):
        bounds.append(_ref_bound(f, u))
        u = _ref_rk4(f, u, t0 + (n - 1) * f.dt)
        if n % every == 0 or n == steps:
            slices.append(u)
            times.append(t0 + n * f.dt)
    return slices, times, bounds


def _ref_operator(f, gammas):
    """Dense operator over the unknowns, with ``np.roll`` neighbour indices."""
    grid = f.grid
    n_total = int(np.prod(grid.shape))
    idx = np.arange(n_total).reshape(grid.shape)
    ii = grid.interior
    unknowns = idx[ii].ravel()
    m = unknowns.size
    compact = np.full(n_total, -1, dtype=np.int64)
    compact[unknowns] = np.arange(m)
    mat = np.zeros((m, m))
    frame_legs = np.zeros(m)
    rows = np.arange(m)
    for a, (g, h) in enumerate(zip(gammas, grid.spacing)):
        w = g[ii].ravel() / (h * h)
        mat[rows, rows] -= 2.0 * w
        for shift in (1, -1):
            cn = compact[np.roll(idx, -shift, axis=a)[ii].ravel()]
            keep = cn >= 0
            mat[rows[keep], cn[keep]] += w[keep]
            frame_legs[~keep] += w[~keep]
    return mat, unknowns, frame_legs


# ---------------------------------------------------------------------------
# fields: periodic 2-D, framed 2-D, framed 4-D
# ---------------------------------------------------------------------------


def periodic2d():
    spec = perturbed_flow_spec(1.0, 1.0, 0.05, modes=((1.0, 2.0), (2.0, -1.0)),
                               weights=(1.0, 0.5))
    grid = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (24, 24), frame=0)
    return flow_from_spec(spec, grid, 1e-4, policy=periodic_base_for(1.0, 1.0))


def periodic2d_nonsquare():
    """Unequal node counts per axis, so a row stride of ``n0 + 2`` would misplace neighbours."""
    spec = perturbed_flow_spec(1.0, 1.0, 0.05, modes=((1.0, 2.0), (2.0, -1.0)),
                               weights=(1.0, 0.5))
    grid = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (24, 17), frame=0)
    return flow_from_spec(spec, grid, 1e-4, policy=periodic_base_for(1.0, 1.0))


def framed2d():
    spec = perturbed_flow_spec(1.0, 1.0, 0.1, modes=((1.0, 1.0), (2.0, -1.0)),
                               weights=(1.0, 0.5))
    return flow_from_spec(spec, BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17), frame=2),
                          dt=8e-4)


def framed4d():
    spec = perturbed_flow_spec(2.0, 1.0, 0.02, flavor="complex11",
                               modes=((1.0, 0.5, -1.0, 1.0),))
    return flow_from_spec(spec, BoxGrid((-1.0,) * 4, (1.0,) * 4, (9,) * 4, frame=1),
                          dt=2e-4)


def periodic4d():
    spec = perturbed_flow_spec(2.0, 1.0, 0.02, flavor="complex11",
                               modes=((1.0, 0.0, -1.0, 1.0), (0.0, 2.0, 1.0, -1.0)),
                               weights=(1.0, 0.5))
    grid = BoxGrid((0.0,) * 4, (2 * math.pi,) * 4, (8,) * 4, frame=0)
    return flow_from_spec(spec, grid, 1e-3, policy=periodic_base_for(2.0, 1.0, "complex11"))


FIELDS = pytest.mark.parametrize(
    "make", [periodic2d, periodic2d_nonsquare, framed2d, framed4d, periodic4d],
    ids=["periodic2d", "periodic2d-24x17", "framed2d", "framed4d", "periodic4d"])


def identical(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMatchesRollReference:
    @FIELDS
    def test_discrete_hessian(self, make):
        f = make()
        assert identical(discrete_hessian(f), _ref_hessian(f, f.slices[-1]))

    @FIELDS
    def test_discrete_time_speed(self, make):
        f = make()
        assert identical(discrete_time_speed(f), _ref_speed(f, f.slices[-1]))

    @FIELDS
    def test_rk4_step(self, make):
        f = make()
        stepped = step_parabolic(f, "rk4").slices[-1]
        assert identical(stepped, _ref_rk4(f, f.slices[-1], f.times[-1]))

    @FIELDS
    def test_run_flow(self, make):
        f = make()
        run = run_flow(f, 5, snapshot_every=2)
        slices, times, bounds = _ref_run(f, 5, 2)
        assert len(run.slices) == len(slices) == 4
        assert all(same_bytes(a, b) for a, b in zip(run.slices, slices))
        assert same_bytes(run.times, times)
        assert same_bytes(run.cfl_log, bounds)

    @FIELDS
    def test_operator_matrix(self, make):
        # the matrix-free L, I - dt*L and |I - dt*L| against the assembled
        # matrix, on seeded random vectors; the frame coupling against the
        # dropped leg weights
        f = make()
        stencil = _Stencil(f).load(f.slices[-1])
        gammas = _linearized_gammas(f, *map(stencil.crop, stencil.blocks()))
        ref_mat, _, ref_legs = _ref_operator(
            f, _linearized_gammas(f, *_ref_blocks(f, f.slices[-1])))
        ref_system = np.eye(len(ref_mat)) - f.dt * ref_mat
        lop, system = _Operator(f.grid, gammas), _Operator(f.grid, gammas, f.dt)
        for v in np.random.default_rng(17).normal(size=(3, len(ref_mat))):
            for got, want in ((lop(v), ref_mat @ v), (system(v), ref_system @ v),
                              (system.bound(v), np.abs(ref_system) @ np.abs(v))):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        scale = max(ref_legs.max(), 1.0)
        assert np.abs(lop.frame_coupling() - ref_legs).max() <= 1e-12 * scale
        assert np.abs(system.frame_coupling() + f.dt * ref_legs).max() <= 1e-12 * f.dt * scale


class TestOneLoaderOneBlockReader:
    """``load`` reads a stored or a stage slice by its shape; ``blocks`` gives stage arrays, ``crop`` their nodes."""

    @FIELDS
    def test_stored_and_stage_slices_give_the_reference_blocks(self, make):
        f = make()
        u = f.slices[-1]
        stencil = _Stencil(f)
        stored = [stencil.crop(block) for block in stencil.load(u).blocks()]
        staged = [stencil.crop(block) for block in stencil.load(stencil.pad(u)).blocks()]
        assert all(same_bytes(a, b) for a, b in zip(stored, staged, strict=True))
        reference = [block[f.grid.interior] for block in _ref_blocks(f, u)]
        assert all(same_bytes(a, b) for a, b in zip(stored, reference, strict=True))

    def test_monitor_class_extrema_skip_the_junk_entries(self):
        f = run_flow(periodic2d_nonsquare(), 3)
        series = monitor_class(f, 0.5, 2.0)
        for i, u in enumerate(f.slices):
            conv, conc = _ref_blocks(f, u)
            got = (series.convex_min[i], series.convex_max[i], series.concave_min[i], series.concave_max[i])
            assert got == (conv.min(), conv.max(), conc.min(), conc.max())


# ---------------------------------------------------------------------------
# cropped quantities
# ---------------------------------------------------------------------------


def _crop_of(full, q):
    """``full``'s channels on the nodes of ``q``'s axes, which are a box of ``full``'s."""
    starts = [int(np.flatnonzero(fa == qa[0])[0]) for fa, qa in zip(full.axes, q.axes)]
    box = tuple(slice(s, s + len(qa)) for s, qa in zip(starts, q.axes))
    axes = tuple(fa[b] for fa, b in zip(full.axes, box))
    return axes, {name: arr[(slice(None),) + box] for name, arr in full.values.items()}


class TestCropEqualsFullCall:
    @pytest.mark.parametrize("make, center, radius", [
        (periodic2d, (0.0, 2 * math.pi - 0.2), 0.5),
        (periodic4d, (0.0, 1.0, 2 * math.pi - 0.5, 3.0), 1.0),
        (framed2d, (0.3, -0.4), 0.35),
        (framed4d, (0.2, -0.3, 0.0, 0.4), 0.5),
        (framed4d, (-1.0, 1.0, 0.0, 0.0), 0.6),
    ], ids=["periodic2d-seams", "periodic4d-seams", "framed2d", "framed4d", "framed4d-edges"])
    def test_channels_match_byte_for_byte(self, make, center, radius):
        f = run_flow(make(), 3)
        full = flow_quantities(f)
        q = flow_quantities(f, center=center, radius=radius)
        axes, values = _crop_of(full, q)
        assert all(len(qa) < len(fa) for qa, fa in zip(q.axes, full.axes))
        assert all(same_bytes(a, b) for a, b in zip(q.axes, axes))
        assert same_bytes(q.times, full.times)
        assert q.names == full.names
        assert all(same_bytes(q.values[name], values[name]) for name in q.names)

    def test_periodic_crop_reads_the_seam(self):
        f = run_flow(periodic2d(), 2)
        q = flow_quantities(f, center=(0.0, 2 * math.pi - 0.2), radius=0.5)
        assert q.axes[0][0] == 0.0
        assert q.axes[1][-1] == f.grid.axes()[1][-1]

    def test_memory_follows_the_crop(self):
        """Peak traced memory: the returned arrays and a few slice-sized buffers.

        200 slices of a 64^2 run; the crop keeps about 100 of 4096 nodes.
        """
        spec = perturbed_flow_spec(1.0, 1.0, 0.05, modes=((1.0, 1.0),))
        grid = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (64, 64), frame=0)
        f = run_flow(flow_from_spec(spec, grid, 1.5e-3, policy=periodic_base_for(1.0, 1.0)), 200)
        tracemalloc.start()
        try:
            q = flow_quantities(f, center=(1.5, 1.2), radius=0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(arr.nbytes for arr in q.values.values())
        assert peak <= 2.5 * returned + 8 * f.slices[0].nbytes


# ---------------------------------------------------------------------------
# class exits outside a measured crop
# ---------------------------------------------------------------------------

#: the refusal of the dented field below, as the whole-grid stencil worded it
_CONVEX_LOST = ("convex block lost definiteness "
                "(min second derivative -5.400e+00 <= margin 1e-10)")


class TestClassExitOutsideCrop:
    @pytest.fixture
    def dented(self):
        """An in-class quadratic with one node next to the frame pushed out of class."""
        spec = reference_flow_spec(1.0, 1.0)
        grid = BoxGrid((-1.0, -1.0), (1.0, 1.0), (17, 17), frame=2)
        u = evaluate_on_grid(spec, grid)
        u[2, 2] += 0.05
        return spec, flow_from_values(u, grid, 1e-4, FrozenFrame(spec))

    def test_crop_excludes_the_dent(self, dented):
        spec, f = dented
        u = f.slices[0].copy()
        u[2, 2] -= 0.05
        healthy = flow_from_values(u, f.grid, 1e-4, FrozenFrame(spec))
        q = flow_quantities(healthy, center=(0.5, 0.5), radius=0.3)
        assert q.axes[0][0] > f.grid.axes()[0][3]
        assert q.axes[1][0] > f.grid.axes()[1][3]

    @pytest.mark.parametrize("where, call", [
        ("time-speed evaluation",
         lambda f, spec: flow_quantities(f, center=(0.5, 0.5), radius=0.3)),
        ("time-speed evaluation", lambda f, spec: discrete_time_speed(f)),
        ("explicit step", lambda f, spec: run_flow(f, 1)),
        ("semi-implicit step", lambda f, spec: run_flow(f, 1, scheme="semi-implicit")),
        ("elliptic initial guess",
         lambda f, spec: solve_elliptic(spec, f.grid, guess=f.slices[0])),
    ], ids=["flow_quantities", "discrete_time_speed", "rk4", "semi-implicit", "newton"])
    def test_refused_with_unchanged_message(self, dented, where, call):
        spec, f = dented
        with pytest.raises(ClassExit) as info:
            call(f, spec)
        assert str(info.value) == f"{where}: {_CONVEX_LOST}"


#: the refusal of the seam-dented periodic field below, as the parent commit worded it
_CONVEX_LOST_AT_SEAM = ("convex block lost definiteness "
                        "(min second derivative -4.590e-01 <= margin 1e-10)")


class TestPeriodicClassExitAtSeam:
    """A periodic field dented in its last column, beside the padded layout's junk entries."""

    @pytest.fixture
    def dented(self):
        grid = BoxGrid((0.0, 0.0), (2 * math.pi, 2 * math.pi), (24, 17), frame=0)
        policy = periodic_base_for(1.0, 1.0)
        u = policy.values_on(grid)
        u[5, -1] += 0.05
        return flow_from_values(u, grid, 1e-4, policy)

    def test_crop_excludes_the_dent(self, dented):
        q = flow_quantities(run_flow(periodic2d_nonsquare(), 1), center=(4.0, 2.5), radius=0.6)
        x, y = dented.grid.axes()
        assert q.axes[0][0] > x[5] and q.axes[1][-1] < y[-2]

    @pytest.mark.parametrize("where, call", [
        ("explicit step", lambda f: run_flow(f, 1)),
        ("semi-implicit step", lambda f: run_flow(f, 1, scheme="semi-implicit")),
        ("time-speed evaluation", discrete_time_speed),
        ("time-speed evaluation",
         lambda f: flow_quantities(f, center=(4.0, 2.5), radius=0.6)),
    ], ids=["rk4", "semi-implicit", "discrete_time_speed", "flow_quantities"])
    def test_refused_with_unchanged_message(self, dented, where, call):
        with pytest.raises(ClassExit) as info:
            call(dented)
        assert str(info.value) == f"{where}: {_CONVEX_LOST_AT_SEAM}"
