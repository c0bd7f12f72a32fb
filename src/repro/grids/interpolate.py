"""Point location and trilinear interpolation in curvilinear blocks.

Pathline integration needs, at every Runge-Kutta stage, the velocity at
an arbitrary physical point.  On a curvilinear grid that requires

1. finding the cell containing the point (*point location*), and
2. inverting the trilinear mapping of that cell to get *natural
   coordinates* ``(r, s, t) ∈ [0,1]^3`` (Newton iteration), then
3. trilinearly blending the corner values.

:class:`CellLocator` combines a kd-tree over cell centers (cold start)
with cell-to-cell *walking* from a hint cell (the common case during
tracing, where consecutive queries are close together).
"""

from __future__ import annotations

import math

import numpy as np

from .block import StructuredBlock

__all__ = [
    "trilinear_weights",
    "trilinear_weights_many",
    "trilinear_map",
    "invert_trilinear",
    "invert_trilinear_many",
    "CellLocator",
]

#: Corner offsets in VTK hexahedron order (see StructuredBlock.cell_corner_points).
_CORNER_RST = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
        [0.0, 1.0, 1.0],
    ]
)


def trilinear_weights(rst: np.ndarray) -> np.ndarray:
    """Shape-function values at natural coordinates, shape ``(8,)``."""
    r, s, t = rst
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    return np.array(
        [
            rm * sm * tm,
            r * sm * tm,
            r * s * tm,
            rm * s * tm,
            rm * sm * t,
            r * sm * t,
            r * s * t,
            rm * s * t,
        ]
    )


def _weight_derivatives(rst: np.ndarray) -> np.ndarray:
    """d N_i / d (r,s,t), shape ``(8, 3)``."""
    r, s, t = rst
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    return np.array(
        [
            [-sm * tm, -rm * tm, -rm * sm],
            [sm * tm, -r * tm, -r * sm],
            [s * tm, r * tm, -r * s],
            [-s * tm, rm * tm, -rm * s],
            [-sm * t, -rm * t, rm * sm],
            [sm * t, -r * t, r * sm],
            [s * t, r * t, r * s],
            [-s * t, rm * t, rm * s],
        ]
    )


def trilinear_map(corners: np.ndarray, rst: np.ndarray) -> np.ndarray:
    """Physical point at natural coordinates ``rst`` of a hexahedron."""
    return trilinear_weights(rst) @ corners


def trilinear_weights_many(rst: np.ndarray) -> np.ndarray:
    """Shape-function values for a batch of natural coordinates.

    ``rst`` has shape ``(n, 3)``; the result has shape ``(n, 8)``.
    """
    rst = np.asarray(rst, dtype=np.float64)
    r, s, t = rst[..., 0], rst[..., 1], rst[..., 2]
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    smtm, stm, smt, st = sm * tm, s * tm, sm * t, s * t
    out = np.empty(rst.shape[:-1] + (8,), dtype=np.float64)
    out[..., 0] = rm * smtm
    out[..., 1] = r * smtm
    out[..., 2] = r * stm
    out[..., 3] = rm * stm
    out[..., 4] = rm * smt
    out[..., 5] = r * smt
    out[..., 6] = r * st
    out[..., 7] = rm * st
    return out


def _weight_derivative_columns(
    r: np.ndarray, s: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(dN/dr, dN/ds, dN/dt)`` for a batch, each of shape ``(n, 8)``."""
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    n = np.shape(r)
    smtm, stm, smt, st = sm * tm, s * tm, sm * t, s * t
    dr = np.empty(n + (8,), dtype=np.float64)
    dr[..., 0] = -smtm
    dr[..., 1] = smtm
    dr[..., 2] = stm
    dr[..., 3] = -stm
    dr[..., 4] = -smt
    dr[..., 5] = smt
    dr[..., 6] = st
    dr[..., 7] = -st
    rmtm, rtm, rmt, rt = rm * tm, r * tm, rm * t, r * t
    ds = np.empty(n + (8,), dtype=np.float64)
    ds[..., 0] = -rmtm
    ds[..., 1] = -rtm
    ds[..., 2] = rtm
    ds[..., 3] = rmtm
    ds[..., 4] = -rmt
    ds[..., 5] = -rt
    ds[..., 6] = rt
    ds[..., 7] = rmt
    rmsm, rsm, rs = rm * sm, r * sm, r * s
    rms = rm * s
    dt = np.empty(n + (8,), dtype=np.float64)
    dt[..., 0] = -rmsm
    dt[..., 1] = -rsm
    dt[..., 2] = -rs
    dt[..., 3] = -rms
    dt[..., 4] = rmsm
    dt[..., 5] = rsm
    dt[..., 6] = rs
    dt[..., 7] = rms
    return dr, ds, dt


#: Batch sizes at or below this take scalar Python fast paths.  Particle
#: batches during replay are routinely 2-4 points, where per-call numpy
#: dispatch dominates the actual arithmetic by an order of magnitude.
_SMALL_BATCH = 16


def _invert_one(cell, px, py, pz, tol2, max_iter):
    """One Newton inversion, bit-identical to :func:`invert_trilinear_many`.

    Every expression mirrors the vectorized sweep, including numpy's
    pairwise association for 8-element row sums
    (``((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))``), so a row solved here is
    indistinguishable from the same row solved in a large batch.  This
    matters because downstream cell/step decisions feed the simulated
    request stream: the golden trace fingerprints pin these bits.
    """
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), \
        (x4, y4, z4), (x5, y5, z5), (x6, y6, z6), (x7, y7, z7) = cell
    r = s = t = 0.5
    for _ in range(max_iter):
        rm = 1.0 - r; sm = 1.0 - s; tm = 1.0 - t
        smtm = sm * tm; stm = s * tm; smt = sm * t; st = s * t
        w0 = rm * smtm; w1 = r * smtm; w2 = r * stm; w3 = rm * stm
        w4 = rm * smt; w5 = r * smt; w6 = r * st; w7 = rm * st
        fx = ((w0 * x0 + w1 * x1) + (w2 * x2 + w3 * x3)) \
            + ((w4 * x4 + w5 * x5) + (w6 * x6 + w7 * x7)) - px
        fy = ((w0 * y0 + w1 * y1) + (w2 * y2 + w3 * y3)) \
            + ((w4 * y4 + w5 * y5) + (w6 * y6 + w7 * y7)) - py
        fz = ((w0 * z0 + w1 * z1) + (w2 * z2 + w3 * z3)) \
            + ((w4 * z4 + w5 * z5) + (w6 * z6 + w7 * z7)) - pz
        if fx * fx + fy * fy + fz * fz < tol2:
            return r, s, t, True
        # Jacobian rows, with the derivative columns of
        # _weight_derivative_columns folded in sign-by-sign.
        j00 = ((-(smtm * x0) + smtm * x1) + (stm * x2 - stm * x3)) \
            + ((-(smt * x4) + smt * x5) + (st * x6 - st * x7))
        j10 = ((-(smtm * y0) + smtm * y1) + (stm * y2 - stm * y3)) \
            + ((-(smt * y4) + smt * y5) + (st * y6 - st * y7))
        j20 = ((-(smtm * z0) + smtm * z1) + (stm * z2 - stm * z3)) \
            + ((-(smt * z4) + smt * z5) + (st * z6 - st * z7))
        rmtm = rm * tm; rtm = r * tm; rmt = rm * t; rt = r * t
        j01 = ((-(rmtm * x0) - rtm * x1) + (rtm * x2 + rmtm * x3)) \
            + ((-(rmt * x4) - rt * x5) + (rt * x6 + rmt * x7))
        j11 = ((-(rmtm * y0) - rtm * y1) + (rtm * y2 + rmtm * y3)) \
            + ((-(rmt * y4) - rt * y5) + (rt * y6 + rmt * y7))
        j21 = ((-(rmtm * z0) - rtm * z1) + (rtm * z2 + rmtm * z3)) \
            + ((-(rmt * z4) - rt * z5) + (rt * z6 + rmt * z7))
        rmsm = rm * sm; rsm = r * sm; rs = r * s; rms = rm * s
        j02 = ((-(rmsm * x0) - rsm * x1) + (-(rs * x2) - rms * x3)) \
            + ((rmsm * x4 + rsm * x5) + (rs * x6 + rms * x7))
        j12 = ((-(rmsm * y0) - rsm * y1) + (-(rs * y2) - rms * y3)) \
            + ((rmsm * y4 + rsm * y5) + (rs * y6 + rms * y7))
        j22 = ((-(rmsm * z0) - rsm * z1) + (-(rs * z2) - rms * z3)) \
            + ((rmsm * z4 + rsm * z5) + (rs * z6 + rms * z7))
        cof00 = j11 * j22 - j12 * j21
        cof01 = j10 * j22 - j12 * j20
        cof02 = j10 * j21 - j11 * j20
        det = j00 * cof00 - j01 * cof01 + j02 * cof02
        if det == 0.0 or not math.isfinite(det):
            return r, s, t, False
        inv = 1.0 / det
        d_r = inv * (
            fx * cof00 - j01 * (fy * j22 - j12 * fz) + j02 * (fy * j21 - j11 * fz)
        )
        d_s = inv * (
            j00 * (fy * j22 - j12 * fz) - fx * cof01 + j02 * (j10 * fz - fy * j20)
        )
        d_t = inv * (
            j00 * (j11 * fz - fy * j21) - j01 * (j10 * fz - fy * j20) + fx * cof02
        )
        r = r - d_r; s = s - d_s; t = t - d_t
        # Keep Newton from running away on strongly curved cells.
        r = -1.0 if r < -1.0 else (2.0 if r > 2.0 else r)
        s = -1.0 if s < -1.0 else (2.0 if s > 2.0 else s)
        t = -1.0 if t < -1.0 else (2.0 if t > 2.0 else t)
    rm = 1.0 - r; sm = 1.0 - s; tm = 1.0 - t
    smtm = sm * tm; stm = s * tm; smt = sm * t; st = s * t
    w0 = rm * smtm; w1 = r * smtm; w2 = r * stm; w3 = rm * stm
    w4 = rm * smt; w5 = r * smt; w6 = r * st; w7 = rm * st
    fx = ((w0 * x0 + w1 * x1) + (w2 * x2 + w3 * x3)) \
        + ((w4 * x4 + w5 * x5) + (w6 * x6 + w7 * x7)) - px
    fy = ((w0 * y0 + w1 * y1) + (w2 * y2 + w3 * y3)) \
        + ((w4 * y4 + w5 * y5) + (w6 * y6 + w7 * y7)) - py
    fz = ((w0 * z0 + w1 * z1) + (w2 * z2 + w3 * z3)) \
        + ((w4 * z4 + w5 * z5) + (w6 * z6 + w7 * z7)) - pz
    return r, s, t, (fx * fx + fy * fy + fz * fz < tol2)


def invert_trilinear_many(
    corners: np.ndarray,
    points: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 25,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton-invert the trilinear map for a batch of (cell, point) pairs.

    ``corners`` has shape ``(n, 8, 3)`` and ``points`` ``(n, 3)``; the
    result is ``(rst, converged)`` with shapes ``(n, 3)`` and ``(n,)``.
    Each pair runs the same damped Newton iteration as the scalar
    :func:`invert_trilinear` (identical convergence test, clamping and
    singular-Jacobian handling), but with per-point convergence masks so
    one LAPACK-free vectorized sweep serves the whole batch.
    """
    c = np.asarray(corners, dtype=np.float64).reshape(-1, 8, 3)
    p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(c)
    if len(p) != n:
        raise ValueError(f"{n} corner sets but {len(p)} points")
    rst = np.full((n, 3), 0.5)
    converged = np.zeros(n, dtype=bool)
    if n == 0:
        return rst, converged
    if n <= _SMALL_BATCH:
        tol2 = tol * tol
        cl = c.tolist()
        pl = p.tolist()
        for i in range(n):
            px, py, pz = pl[i]
            r, s, t, ok = _invert_one(cl[i], px, py, pz, tol2, max_iter)
            row = rst[i]
            row[0] = r; row[1] = s; row[2] = t
            converged[i] = ok
        return rst, converged
    cx, cy, cz = c[:, :, 0], c[:, :, 1], c[:, :, 2]
    tol2 = tol * tol
    #: rows still iterating (neither converged nor singular).
    active = np.arange(n)
    for _ in range(max_iter):
        r, s, t = rst[active, 0], rst[active, 1], rst[active, 2]
        w = trilinear_weights_many(rst[active])
        fx = (w * cx[active]).sum(axis=1) - p[active, 0]
        fy = (w * cy[active]).sum(axis=1) - p[active, 1]
        fz = (w * cz[active]).sum(axis=1) - p[active, 2]
        done = fx * fx + fy * fy + fz * fz < tol2
        if done.any():
            converged[active[done]] = True
            keep = ~done
            active = active[keep]
            if active.size == 0:
                return rst, converged
            r, s, t = r[keep], s[keep], t[keep]
            fx, fy, fz = fx[keep], fy[keep], fz[keep]
        dr, ds, dt = _weight_derivative_columns(r, s, t)
        j00 = (dr * cx[active]).sum(axis=1)
        j10 = (dr * cy[active]).sum(axis=1)
        j20 = (dr * cz[active]).sum(axis=1)
        j01 = (ds * cx[active]).sum(axis=1)
        j11 = (ds * cy[active]).sum(axis=1)
        j21 = (ds * cz[active]).sum(axis=1)
        j02 = (dt * cx[active]).sum(axis=1)
        j12 = (dt * cy[active]).sum(axis=1)
        j22 = (dt * cz[active]).sum(axis=1)
        cof00 = j11 * j22 - j12 * j21
        cof01 = j10 * j22 - j12 * j20
        cof02 = j10 * j21 - j11 * j20
        det = j00 * cof00 - j01 * cof01 + j02 * cof02
        bad = (det == 0.0) | ~np.isfinite(det)
        if bad.any():
            # Singular / NaN Jacobian: give up on those rows (converged
            # stays False), keep iterating the rest.
            keep = ~bad
            active = active[keep]
            if active.size == 0:
                return rst, converged
            fx, fy, fz = fx[keep], fy[keep], fz[keep]
            j00, j01, j02 = j00[keep], j01[keep], j02[keep]
            j10, j11, j12 = j10[keep], j11[keep], j12[keep]
            j20, j21, j22 = j20[keep], j21[keep], j22[keep]
            cof00, cof01, cof02 = cof00[keep], cof01[keep], cof02[keep]
            det = det[keep]
        inv = 1.0 / det
        d_r = inv * (
            fx * cof00 - j01 * (fy * j22 - j12 * fz) + j02 * (fy * j21 - j11 * fz)
        )
        d_s = inv * (
            j00 * (fy * j22 - j12 * fz) - fx * cof01 + j02 * (j10 * fz - fy * j20)
        )
        d_t = inv * (
            j00 * (j11 * fz - fy * j21) - j01 * (j10 * fz - fy * j20) + fx * cof02
        )
        step = np.stack([d_r, d_s, d_t], axis=-1)
        # Keep Newton from running away on strongly curved cells.
        rst[active] = np.clip(rst[active] - step, -1.0, 2.0)
    if active.size:
        w = trilinear_weights_many(rst[active])
        fx = (w * cx[active]).sum(axis=1) - p[active, 0]
        fy = (w * cy[active]).sum(axis=1) - p[active, 1]
        fz = (w * cz[active]).sum(axis=1) - p[active, 2]
        converged[active] = fx * fx + fy * fy + fz * fz < tol2
    return rst, converged


def invert_trilinear(
    corners: np.ndarray,
    point: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 25,
) -> tuple[np.ndarray, bool]:
    """Newton-invert the trilinear map; returns ``(rst, converged)``.

    ``converged`` only says the Newton iteration reached ``tol``; whether
    the point is *inside* is a separate range check on ``rst``.

    Implementation note: the 3x3 Newton step is written in scalar Python
    — for a single point, list arithmetic beats array construction and
    LAPACK dispatch.  Batched queries go through
    :func:`invert_trilinear_many`, the vectorized counterpart whose
    agreement with this reference is pinned by the test suite.
    """
    c = np.asarray(corners, dtype=np.float64).reshape(8, 3).tolist()
    px, py, pz = (float(v) for v in np.asarray(point, dtype=np.float64))
    (c0, c1, c2, c3, c4, c5, c6, c7) = c
    r = s = t = 0.5
    tol2 = tol * tol
    for _ in range(max_iter):
        rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
        w0 = rm * sm * tm
        w1 = r * sm * tm
        w2 = r * s * tm
        w3 = rm * s * tm
        w4 = rm * sm * t
        w5 = r * sm * t
        w6 = r * s * t
        w7 = rm * s * t
        fx = (w0 * c0[0] + w1 * c1[0] + w2 * c2[0] + w3 * c3[0]
              + w4 * c4[0] + w5 * c5[0] + w6 * c6[0] + w7 * c7[0]) - px
        fy = (w0 * c0[1] + w1 * c1[1] + w2 * c2[1] + w3 * c3[1]
              + w4 * c4[1] + w5 * c5[1] + w6 * c6[1] + w7 * c7[1]) - py
        fz = (w0 * c0[2] + w1 * c1[2] + w2 * c2[2] + w3 * c3[2]
              + w4 * c4[2] + w5 * c5[2] + w6 * c6[2] + w7 * c7[2]) - pz
        if fx * fx + fy * fy + fz * fz < tol2:
            return np.array([r, s, t]), True
        # dN_i/dr etc., folded straight into the 3x3 Jacobian
        # J[c, a] = d x_c / d rst_a.
        dr = [-sm * tm, sm * tm, s * tm, -s * tm, -sm * t, sm * t, s * t, -s * t]
        ds = [-rm * tm, -r * tm, r * tm, rm * tm, -rm * t, -r * t, r * t, rm * t]
        dt = [-rm * sm, -r * sm, -r * s, -rm * s, rm * sm, r * sm, r * s, rm * s]
        j00 = j01 = j02 = j10 = j11 = j12 = j20 = j21 = j22 = 0.0
        for i, ci in enumerate((c0, c1, c2, c3, c4, c5, c6, c7)):
            j00 += dr[i] * ci[0]
            j10 += dr[i] * ci[1]
            j20 += dr[i] * ci[2]
            j01 += ds[i] * ci[0]
            j11 += ds[i] * ci[1]
            j21 += ds[i] * ci[2]
            j02 += dt[i] * ci[0]
            j12 += dt[i] * ci[1]
            j22 += dt[i] * ci[2]
        det = (
            j00 * (j11 * j22 - j12 * j21)
            - j01 * (j10 * j22 - j12 * j20)
            + j02 * (j10 * j21 - j11 * j20)
        )
        if det == 0.0 or det != det:  # singular or NaN
            return np.array([r, s, t]), False
        # Cramer's rule for J . delta = f.
        inv = 1.0 / det
        d_r = inv * (
            fx * (j11 * j22 - j12 * j21)
            - j01 * (fy * j22 - j12 * fz)
            + j02 * (fy * j21 - j11 * fz)
        )
        d_s = inv * (
            j00 * (fy * j22 - j12 * fz)
            - fx * (j10 * j22 - j12 * j20)
            + j02 * (j10 * fz - fy * j20)
        )
        d_t = inv * (
            j00 * (j11 * fz - fy * j21)
            - j01 * (j10 * fz - fy * j20)
            + fx * (j10 * j21 - j11 * j20)
        )
        r -= d_r
        s -= d_s
        t -= d_t
        # Keep Newton from running away on strongly curved cells.
        r = -1.0 if r < -1.0 else (2.0 if r > 2.0 else r)
        s = -1.0 if s < -1.0 else (2.0 if s > 2.0 else s)
        t = -1.0 if t < -1.0 else (2.0 if t > 2.0 else t)
    rm, sm, tm = 1.0 - r, 1.0 - s, 1.0 - t
    w = (rm * sm * tm, r * sm * tm, r * s * tm, rm * s * tm,
         rm * sm * t, r * sm * t, r * s * t, rm * s * t)
    fx = sum(w[i] * ci[0] for i, ci in enumerate((c0, c1, c2, c3, c4, c5, c6, c7))) - px
    fy = sum(w[i] * ci[1] for i, ci in enumerate((c0, c1, c2, c3, c4, c5, c6, c7))) - py
    fz = sum(w[i] * ci[2] for i, ci in enumerate((c0, c1, c2, c3, c4, c5, c6, c7))) - pz
    return np.array([r, s, t]), bool(fx * fx + fy * fy + fz * fz < tol2)


def _inside(rst: np.ndarray, slack: float) -> bool:
    return bool(np.all(rst >= -slack) and np.all(rst <= 1.0 + slack))


class CellLocator:
    """Locates containing cells in one block and interpolates fields."""

    def __init__(self, block: StructuredBlock, slack: float = 1e-8):
        self.block = block
        self.slack = slack
        self._centers = None
        self._tree = None  # scipy.spatial.cKDTree, built on first locate
        self._bounds = block.bounds()
        # Cell corner coordinates gathered once, vectorized: repeated
        # per-cell fancy indexing dominated tracing profiles otherwise.
        c = block.coords
        self._cell_corners = np.stack(
            [
                c[:-1, :-1, :-1], c[1:, :-1, :-1], c[1:, 1:, :-1], c[:-1, 1:, :-1],
                c[:-1, :-1, 1:], c[1:, :-1, 1:], c[1:, 1:, 1:], c[:-1, 1:, 1:],
            ],
            axis=3,
        )  # (ci, cj, ck, 8, 3)

    # ------------------------------------------------------------ build
    def _ensure_tree(self) -> None:
        if self._tree is None:
            # Deferred: scipy.spatial is most of the import cost of the
            # grids layer, and only a point location ever needs it.
            from scipy.spatial import cKDTree

            from .geometry import cell_centers

            centers = cell_centers(self.block)
            self._centers = centers.reshape(-1, 3)
            self._tree = cKDTree(self._centers)

    def _cell_index(self, flat: int) -> tuple[int, int, int]:
        ci, cj, ck = self.block.cell_shape
        i, rem = divmod(flat, cj * ck)
        j, k = divmod(rem, ck)
        return (i, j, k)

    def in_bounds(self, point: np.ndarray, pad: float = 0.0) -> bool:
        p = np.asarray(point)
        return bool(
            np.all(p >= self._bounds[0] - pad) and np.all(p <= self._bounds[1] + pad)
        )

    # ----------------------------------------------------------- locate
    def _try_cell(
        self, cell: tuple[int, int, int], point: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        corners = self._cell_corners[cell]
        rst, ok = invert_trilinear(corners, point)
        return rst, ok and _inside(rst, self.slack)

    def locate(
        self,
        point: np.ndarray,
        hint: tuple[int, int, int] | None = None,
        k_candidates: int = 8,
        max_walk: int = 64,
    ) -> tuple[tuple[int, int, int], np.ndarray] | None:
        """Find ``(cell_index, natural_coords)`` for ``point``.

        With a ``hint``, walk from that cell using the direction in which
        natural coordinates overshoot (cheap for coherent queries);
        otherwise query the kd-tree over cell centers.  Returns ``None``
        when the point is in no cell of this block.
        """
        point = np.asarray(point, dtype=np.float64)
        if hint is not None:
            found = self._walk(point, hint, max_walk)
            if found is not None:
                return found
        if not self.in_bounds(point, pad=self.slack):
            return None
        self._ensure_tree()
        n_cells = self.block.n_cells
        k = min(k_candidates, n_cells)
        _dists, flats = self._tree.query(point, k=k)
        flats = np.atleast_1d(flats)
        for flat in flats:
            cell = self._cell_index(int(flat))
            rst, inside = self._try_cell(cell, point)
            if inside:
                return cell, rst
        return None

    def _walk(
        self, point: np.ndarray, start: tuple[int, int, int], max_walk: int
    ) -> tuple[tuple[int, int, int], np.ndarray] | None:
        ci, cj, ck = self.block.cell_shape
        cell = (
            min(max(start[0], 0), ci - 1),
            min(max(start[1], 0), cj - 1),
            min(max(start[2], 0), ck - 1),
        )
        visited = set()
        for _ in range(max_walk):
            if cell in visited:
                return None
            visited.add(cell)
            rst, inside = self._try_cell(cell, point)
            if inside:
                return cell, rst
            # Step toward where the natural coordinates point.
            step = [0, 0, 0]
            for a in range(3):
                if rst[a] < -self.slack:
                    step[a] = -1
                elif rst[a] > 1.0 + self.slack:
                    step[a] = 1
            if step == [0, 0, 0]:
                return None  # Newton failed without direction info
            nxt = (cell[0] + step[0], cell[1] + step[1], cell[2] + step[2])
            if not (0 <= nxt[0] < ci and 0 <= nxt[1] < cj and 0 <= nxt[2] < ck):
                return None  # walked off the block
            cell = nxt
        return None

    # ----------------------------------------------------- batch locate
    def locate_many(
        self,
        points: np.ndarray,
        hints: "list[tuple[int, int, int] | None] | None" = None,
        k_candidates: int = 8,
        max_walk: int = 64,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batch :meth:`locate`: one kd-tree query / walk sweep for many points.

        ``points`` has shape ``(n, 3)``; ``hints`` is an optional
        per-point list of start cells (``None`` entries fall straight
        through to the kd-tree).  Returns ``(cells, rst)`` where
        ``cells`` is ``(n, 3)`` int64 with ``-1`` rows marking points
        contained in no cell of this block, and ``rst`` the matching
        natural coordinates.

        Points with hints walk together (one vectorized Newton solve per
        walk front); the rest share one batched kd-tree query and are
        tested against their k nearest candidate cells rank by rank.
        """
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        n = len(pts)
        cells = np.full((n, 3), -1, dtype=np.int64)
        rst_out = np.zeros((n, 3), dtype=np.float64)
        if n == 0:
            return cells, rst_out
        if hints is not None:
            hint_rows = [row for row, h in enumerate(hints) if h is not None]
            if hint_rows:
                rows = np.asarray(hint_rows, dtype=np.int64)
                starts = np.asarray(
                    [hints[row] for row in hint_rows], dtype=np.int64
                )
                w_cells, w_rst = self._walk_many(pts[rows], starts, max_walk)
                cells[rows] = w_cells
                rst_out[rows] = w_rst
        unresolved = np.nonzero(cells[:, 0] < 0)[0]
        if unresolved.size == 0:
            return cells, rst_out
        pad = self.slack
        inb = np.all(pts[unresolved] >= self._bounds[0] - pad, axis=1) & np.all(
            pts[unresolved] <= self._bounds[1] + pad, axis=1
        )
        pending = unresolved[inb]
        if pending.size == 0:
            return cells, rst_out
        self._ensure_tree()
        n_cells = self.block.n_cells
        k = min(k_candidates, n_cells)
        _dists, flats = self._tree.query(pts[pending], k=k)
        flats = np.atleast_2d(np.asarray(flats, dtype=np.int64).reshape(len(pending), k))
        ci, cj, ck = self.block.cell_shape
        for rank in range(k):
            if pending.size == 0:
                break
            flat = flats[:, rank]
            i, rem = np.divmod(flat, cj * ck)
            j, kk = np.divmod(rem, ck)
            corners = self._cell_corners[i, j, kk]
            rst, ok = invert_trilinear_many(corners, pts[pending])
            inside = (
                ok
                & np.all(rst >= -self.slack, axis=1)
                & np.all(rst <= 1.0 + self.slack, axis=1)
            )
            if inside.any():
                rows = pending[inside]
                cells[rows, 0] = i[inside]
                cells[rows, 1] = j[inside]
                cells[rows, 2] = kk[inside]
                rst_out[rows] = rst[inside]
                pending = pending[~inside]
                flats = flats[~inside]
        return cells, rst_out

    def _walk_many(
        self, pts: np.ndarray, starts: np.ndarray, max_walk: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized cell walk: every point steps from its own hint cell."""
        m = len(pts)
        ci, cj, ck = self.block.cell_shape
        if m <= _SMALL_BATCH:
            return self._walk_small(pts, starts, max_walk)
        limit = np.array([ci - 1, cj - 1, ck - 1], dtype=np.int64)
        cur = np.clip(np.asarray(starts, dtype=np.int64), 0, limit)
        out_cells = np.full((m, 3), -1, dtype=np.int64)
        out_rst = np.zeros((m, 3), dtype=np.float64)
        alive = np.arange(m)
        prev = np.full((m, 3), -9, dtype=np.int64)
        for _ in range(max_walk):
            corners = self._cell_corners[cur[alive, 0], cur[alive, 1], cur[alive, 2]]
            rst, ok = invert_trilinear_many(corners, pts[alive])
            inside = (
                ok
                & np.all(rst >= -self.slack, axis=1)
                & np.all(rst <= 1.0 + self.slack, axis=1)
            )
            if inside.any():
                rows = alive[inside]
                out_cells[rows] = cur[rows]
                out_rst[rows] = rst[inside]
            # Step toward where the natural coordinates point.
            step = np.where(rst < -self.slack, -1, np.where(rst > 1.0 + self.slack, 1, 0))
            nxt = cur[alive] + step
            keep = (
                ~inside
                & step.any(axis=1)  # Newton failed without direction info
                & (nxt >= 0).all(axis=1)
                & (nxt <= limit).all(axis=1)  # walked off the block
                & ~(nxt == prev[alive]).all(axis=1)  # two-cell oscillation
            )
            rows = alive[keep]
            if rows.size == 0:
                break
            prev[rows] = cur[rows]
            cur[rows] = nxt[keep]
            alive = rows
        return out_cells, out_rst

    def _walk_small(
        self, pts: np.ndarray, starts: np.ndarray, max_walk: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scalar counterpart of :meth:`_walk_many` for tiny batches.

        Rows walk independently in the vectorized sweep, so walking them
        one at a time with the bit-identical scalar Newton solve
        (:func:`_invert_one`) yields the exact same cells and natural
        coordinates while skipping the per-step masking machinery.
        """
        m = len(pts)
        ci, cj, ck = self.block.cell_shape
        i_hi, j_hi, k_hi = ci - 1, cj - 1, ck - 1
        out_cells = np.full((m, 3), -1, dtype=np.int64)
        out_rst = np.zeros((m, 3), dtype=np.float64)
        corners_grid = self._cell_corners
        lo_ok = -self.slack
        hi_ok = 1.0 + self.slack
        tol2 = 1e-10 * 1e-10
        pts_l = np.asarray(pts, dtype=np.float64).tolist()
        starts_l = np.asarray(starts, dtype=np.int64).tolist()
        for row in range(m):
            px, py, pz = pts_l[row]
            a, b, c = starts_l[row]
            a = 0 if a < 0 else (i_hi if a > i_hi else a)
            b = 0 if b < 0 else (j_hi if b > j_hi else b)
            c = 0 if c < 0 else (k_hi if c > k_hi else c)
            pa = pb = pc = -9
            for _ in range(max_walk):
                cell = corners_grid[a, b, c].tolist()
                r, s, t, ok = _invert_one(cell, px, py, pz, tol2, 25)
                if (
                    ok
                    and r >= lo_ok and s >= lo_ok and t >= lo_ok
                    and r <= hi_ok and s <= hi_ok and t <= hi_ok
                ):
                    oc = out_cells[row]
                    oc[0] = a; oc[1] = b; oc[2] = c
                    orow = out_rst[row]
                    orow[0] = r; orow[1] = s; orow[2] = t
                    break
                # Step toward where the natural coordinates point.
                sa = -1 if r < lo_ok else (1 if r > hi_ok else 0)
                sb = -1 if s < lo_ok else (1 if s > hi_ok else 0)
                sc = -1 if t < lo_ok else (1 if t > hi_ok else 0)
                if sa == 0 and sb == 0 and sc == 0:
                    break  # Newton failed without direction info
                na, nb, nc = a + sa, b + sb, c + sc
                if not (0 <= na <= i_hi and 0 <= nb <= j_hi and 0 <= nc <= k_hi):
                    break  # walked off the block
                if na == pa and nb == pb and nc == pc:
                    break  # two-cell oscillation
                pa, pb, pc = a, b, c
                a, b, c = na, nb, nc
        return out_cells, out_rst

    def interpolate_many(
        self, name: str, cells: np.ndarray, rst: np.ndarray
    ) -> np.ndarray:
        """Batch :meth:`interpolate`: one gather for many (cell, rst) pairs.

        ``cells`` is ``(n, 3)`` int, ``rst`` ``(n, 3)``; returns ``(n,)``
        for scalar fields and ``(n, 3)`` for vector fields.
        """
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 3)
        data = self.block.field(name)
        n = len(cells)
        if n <= _SMALL_BATCH:
            return self._interpolate_small(data, cells, rst)
        w = trilinear_weights_many(np.asarray(rst, dtype=np.float64).reshape(-1, 3))
        i, j, k = cells[:, 0], cells[:, 1], cells[:, 2]
        corners = np.stack(
            [
                data[i, j, k],
                data[i + 1, j, k],
                data[i + 1, j + 1, k],
                data[i, j + 1, k],
                data[i, j, k + 1],
                data[i + 1, j, k + 1],
                data[i + 1, j + 1, k + 1],
                data[i, j + 1, k + 1],
            ],
            axis=1,
        )
        if data.ndim == 3:
            return (w * corners).sum(axis=1)
        return (w[:, :, None] * corners).sum(axis=1)

    def _interpolate_small(
        self, data: np.ndarray, cells: np.ndarray, rst: np.ndarray
    ) -> np.ndarray:
        """Scalar counterpart of :meth:`interpolate_many` for tiny batches.

        Gathers the 8 corner values per row directly and blends them in
        numpy's reduction order — pairwise for the scalar-field case
        (contiguous inner-axis sum), sequential for the vector case
        (outer-axis sum) — so results are bit-identical to the
        vectorized gather while skipping the batch ``np.stack``.
        """
        n = len(cells)
        cells_l = cells.tolist()
        rst_l = np.asarray(rst, dtype=np.float64).reshape(-1, 3).tolist()
        vector = data.ndim != 3
        n_comp = data.shape[3] if vector else 0
        out = np.empty((n, n_comp) if vector else n, dtype=np.float64)
        for row in range(n):
            i, j, k = cells_l[row]
            r, s, t = rst_l[row]
            rm = 1.0 - r; sm = 1.0 - s; tm = 1.0 - t
            smtm = sm * tm; stm = s * tm; smt = sm * t; st = s * t
            w0 = rm * smtm; w1 = r * smtm; w2 = r * stm; w3 = rm * stm
            w4 = rm * smt; w5 = r * smt; w6 = r * st; w7 = rm * st
            i1, j1, k1 = i + 1, j + 1, k + 1
            if not vector:
                out[row] = (
                    (w0 * float(data[i, j, k]) + w1 * float(data[i1, j, k]))
                    + (w2 * float(data[i1, j1, k]) + w3 * float(data[i, j1, k]))
                ) + (
                    (w4 * float(data[i, j, k1]) + w5 * float(data[i1, j, k1]))
                    + (w6 * float(data[i1, j1, k1]) + w7 * float(data[i, j1, k1]))
                )
                continue
            c0 = data[i, j, k].tolist()
            c1 = data[i1, j, k].tolist()
            c2 = data[i1, j1, k].tolist()
            c3 = data[i, j1, k].tolist()
            c4 = data[i, j, k1].tolist()
            c5 = data[i1, j, k1].tolist()
            c6 = data[i1, j1, k1].tolist()
            c7 = data[i, j1, k1].tolist()
            orow = out[row]
            for comp in range(n_comp):
                orow[comp] = (
                    w0 * c0[comp] + w1 * c1[comp] + w2 * c2[comp]
                    + w3 * c3[comp] + w4 * c4[comp] + w5 * c5[comp]
                    + w6 * c6[comp] + w7 * c7[comp]
                )
        return out

    # ------------------------------------------------------ interpolate
    def interpolate(
        self, name: str, cell: tuple[int, int, int], rst: np.ndarray
    ) -> np.ndarray | float:
        """Trilinear value of field ``name`` at natural coords in ``cell``."""
        w = trilinear_weights(rst)
        data = self.block.field(name)
        i, j, k = cell
        if data.ndim == 3:
            corners = self.block.cell_corner_values(name, i, j, k)
            return float(w @ corners)
        corners = np.array(
            [
                data[i, j, k],
                data[i + 1, j, k],
                data[i + 1, j + 1, k],
                data[i, j + 1, k],
                data[i, j, k + 1],
                data[i + 1, j, k + 1],
                data[i + 1, j + 1, k + 1],
                data[i, j + 1, k + 1],
            ]
        )
        return w @ corners

    def sample(
        self, name: str, point: np.ndarray, hint: tuple[int, int, int] | None = None
    ) -> tuple[np.ndarray | float, tuple[int, int, int]] | None:
        """Locate ``point`` and interpolate ``name`` there in one call."""
        found = self.locate(point, hint=hint)
        if found is None:
            return None
        cell, rst = found
        return self.interpolate(name, cell, rst), cell
