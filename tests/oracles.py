"""Independent reference computations used by the tests.

These deliberately avoid the library's interpolation and assembly code paths:
the integrator is a fixed-step RK4 method of steps with cubic Hermite
interpolated history, and quadrature checks go through scipy's adaptive
routines. ``orbit_guess_per_call`` keeps the straightforward per-call history
evaluator that ``integrate_orbit_guess`` must reproduce bit for bit.
``dense_monodromy`` forms the monodromy matrix by a dense LU of ``I - A2``,
ignoring its causal block structure, and ``dense_multipliers`` lists every
eigenvalue of it. ``fd_jacobian`` and
``central_jacobian`` differentiate the BVP residual column by column, the
way the periodic solver did before it assembled its Jacobian analytically.
``prolong_weights``, ``prolong_eval``, ``integral_rows`` and
``kernel_quadrature`` are dense, one-window conveniences over the library's
sparse weight builders; ``restrict`` samples a scalar-style callback node by
node. ``searchsorted_groups`` and ``scattered_monodromy`` keep the earlier
constructions of a block's row groups (a binary search of each row among the
group edges) and of ``T`` (``B1`` dense, ``B2 X`` scattered into the columns
``A1`` reads), which the library must reproduce bit for bit.
``loop_forward_grid``, ``loop_history_grid`` and ``loop_refine_mesh`` keep
the earlier piece-by-piece grid and refinement builders (the history side by
a right-to-left walk over windows of ``omega``), which the library's array
builders must reproduce bit for bit, errors included.
"""

import numpy as np
import scipy.linalg

from pwfloquet.interp import (NodalFunction, breakpoint_weights, integral_weights,
                              prolong_pairs, window_rule)
from pwfloquet.mesh import COINCIDENCE_RTOL, SLIVER_RTOL, GridSide, Mesh


FD_STEP = 1e-7


def fd_jacobian(sys, state, r0, step=FD_STEP):
    """Forward-difference Jacobian of ``sys.residual`` at ``state``, where
    ``r0`` is the residual there: one residual call per unknown."""
    n = state.size
    jac = np.empty((n, n))
    for i in range(n):
        delta = step * max(1.0, abs(state[i]))
        pert = state.copy()
        pert[i] += delta
        jac[:, i] = (sys.residual(pert) - r0) / delta
    return jac


def central_jacobian(sys, state, step=1e-5):
    """Central-difference Jacobian of ``sys.residual`` at ``state``."""
    n = state.size
    jac = np.empty((n, n))
    for i in range(n):
        delta = step * max(1.0, abs(state[i]))
        up, down = state.copy(), state.copy()
        up[i] += delta
        down[i] -= delta
        jac[:, i] = (sys.residual(up) - sys.residual(down)) / (2 * delta)
    return jac


def restrict(f, side):
    """Sample ``f`` at every node of the side, one scalar call per node."""
    vals = np.asarray([np.atleast_1d(f(float(t))) for t in side.nodes])
    return NodalFunction(side=side, values=vals)


def prolong_weights(side, t):
    """Dense weight vector over all global nodes realizing evaluation at t."""
    cols, w = prolong_pairs(side, t)
    out = np.zeros(cols.shape[:-1] + (side.n,))
    np.put_along_axis(out, cols, w, axis=-1)
    return out


def prolong_eval(v, t):
    """Evaluate the piecewise interpolant of the nodal function ``v`` at ``t``."""
    cols, w = prolong_pairs(v.side, t)
    return w @ v.values[cols]


def integral_rows(side, upper):
    """Dense rows over all nodes of the side realizing the integral of the
    interpolant from the side's start to ``upper``: shape ``upper.shape + (n,)``."""
    i, cols, w = integral_weights(side, upper)
    out = breakpoint_weights(side)[i]
    np.put_along_axis(out, cols, np.take_along_axis(out, cols, axis=-1) + w, axis=-1)
    return out


def kernel_quadrature(side, lo, hi, kernel):
    """Weights realizing ``int_lo^hi K(s) v(s) ds`` over the side's nodes.

    ``kernel`` is elementwise: an array of points ``s`` in, an array of
    shape ``s.shape + (p, q)`` out. The result has shape (p, q, n). The
    window is split by ``window_rule``.
    """
    _, s, w = window_rule(side, lo, hi)
    k = np.asarray(kernel(s), dtype=float)
    if k.ndim != 3 or k.shape[0] != s.size:
        raise ValueError(
            f"kernel returned shape {k.shape} for {s.size} points; kernels are "
            "elementwise: an array of points in, shape + (p, q) out"
        )
    cols, lw = prolong_pairs(side, s)
    out = np.zeros((side.n,) + k.shape[1:])
    np.add.at(out, cols, (w[:, None, None] * k)[:, None] * lw[..., None, None])
    return np.moveaxis(out, 0, -1)


def dense_monodromy(blocks):
    """``T = B1 + B2 (I - A2)^{-1} A1`` by a dense LU of ``I - A2``, and
    LAPACK's ``gecon`` estimate of the reciprocal 1-norm condition number of
    ``I - A2``."""
    a1, a2, b1, b2 = (blocks[k] for k in ("A1", "A2", "B1", "B2"))
    system = np.eye(a2.shape[0]) - a2
    lu, piv = scipy.linalg.lu_factor(system)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (system,))
    rcond, info = gecon(lu, np.linalg.norm(system, 1), norm="1")
    assert info == 0
    return b1 + b2 @ scipy.linalg.lu_solve((lu, piv), a1), float(rcond)


def searchsorted_groups(shape, side, d, triples):
    """Row groups ``(rows, columns, dense values)`` of the ``(rows, columns,
    values)`` triples of a block whose rows lie on ``side`` (piece ``i`` owns
    nodes ``i M + 1 ... (i + 1) M``, piece 0 also node 0), each row's group
    found by a binary search among the group edges."""
    rows, cols, vals = (np.concatenate(part) for part in zip(
        (np.empty(0, int), np.empty(0, int), np.empty(0)), *triples))
    edges = np.r_[0, d * (np.arange(1, side.P + 1) * side.family.degree + 1)]
    group = np.searchsorted(edges, rows, side="right") - 1
    mask = np.zeros((edges.size - 1, shape[1]), bool)
    mask[group, cols] = True
    pos = np.cumsum(mask, axis=1, dtype=np.int32) - 1
    nrows, count = np.diff(edges), mask.sum(axis=1)
    start = np.cumsum(nrows * count) - nrows * count
    flat = start[group] + (rows - edges[group]) * count[group] + pos[group, cols]
    dense = np.bincount(flat, vals, minlength=(nrows * count).sum())
    return [(slice(r, r + n), np.flatnonzero(m), dense[a:a + n * c].reshape(n, c))
            for r, m, a, n, c in zip(edges, mask, start, nrows, count)]


def scattered_monodromy(parts, system):
    """``T`` formed whole: ``B1`` dense, and ``B2 X`` with ``X = (I - A2)^{-1}
    A1`` added into the sorted columns where ``A1`` is nonzero; ``system`` is
    the causal solver of ``I - A2``."""
    used = np.unique(np.concatenate([at for _, at, _ in parts["A1"].groups]))
    a1 = np.zeros((parts["A1"].shape[0], used.size), order="F")
    for rows, at, w in parts["A1"].groups:
        a1[rows, np.searchsorted(used, at)] = w
    x = system.solve(a1)
    t_mat = np.zeros(parts["B1"].shape, order="F")
    for rows, at, w in parts["B1"].groups:
        t_mat[rows, at] = w
    t_mat[:, used] += np.vstack([w @ x[at] for _, at, w in parts["B2"].groups])
    return t_mat


def _piece_node_array(lo, hi, family):
    inner = lo + (hi - lo) * family.nodes[1:-1]
    return np.concatenate(([lo], inner, [hi]))


def _finish_side(label, pieces, family):
    # adjacent pieces share the left piece's last node
    for i in range(1, len(pieces)):
        pieces[i][0] = pieces[i - 1][-1]
    nodes = np.concatenate([pieces[0]] + [p[1:] for p in pieces[1:]])
    if not np.all(np.diff(nodes) > 0.0):
        raise ValueError(f"degenerate {label} grid: nodes are not strictly increasing")
    breakpoints = np.array([p[0] for p in pieces] + [pieces[-1][-1]])
    return GridSide(label=label, breakpoints=breakpoints, family=family, nodes=nodes)


def loop_forward_grid(mesh, family):
    """Forward grid side built one piece at a time."""
    b = mesh.breakpoints
    if b[0] != 0.0:
        raise ValueError("mesh must span [0, omega]: first breakpoint is not 0")
    pieces = [_piece_node_array(b[i], b[i + 1], family) for i in range(mesh.L)]
    return _finish_side("forward", pieces, family)


def loop_history_grid(mesh, family, tau):
    """History grid side built by walking the windows ``k = 1, 2, ...`` and
    their shifted pieces right to left until ``-tau`` is reached."""
    b = mesh.breakpoints
    if b[0] != 0.0:
        raise ValueError("mesh must span [0, omega]: first breakpoint is not 0")
    omega = float(b[-1])
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    ctol = COINCIDENCE_RTOL * max(1.0, omega)
    stol = SLIVER_RTOL * omega
    pieces = []  # collected right to left
    k = 1
    done = False
    while not done:
        shift = k * omega
        for i in range(mesh.L - 1, -1, -1):
            left = b[i] - shift
            right = b[i + 1] - shift
            if abs(left + tau) <= ctol:
                pieces.append(_piece_node_array(b[i], b[i + 1], family) - shift)
                done = True
                break
            if left < -tau:
                if right + tau < stol and pieces:
                    neighbour = pieces.pop()
                    right = neighbour[-1]
                pieces.append(_piece_node_array(-tau, right, family))
                done = True
                break
            pieces.append(_piece_node_array(b[i], b[i + 1], family) - shift)
        k += 1
        if k > 1_000_000:
            raise RuntimeError("history grid construction did not terminate")
    pieces.reverse()
    return _finish_side("history", pieces, family)


def loop_refine_mesh(mesh, hmax):
    """``mesh`` with every piece longer than ``hmax`` cut into equal subpieces,
    one breakpoint at a time."""
    if hmax <= 0.0:
        raise ValueError("hmax must be positive")
    b = mesh.breakpoints
    out = [b[0]]
    for i in range(mesh.L):
        h = b[i + 1] - b[i]
        parts = int(np.ceil(h / hmax - 1e-12))
        for j in range(1, parts):
            out.append(b[i] + h * (j / parts))
        out.append(b[i + 1])
    return Mesh(np.array(out))


def loop_differentiation_matrix(table):
    """The differentiation matrix at the nodes of ``table``, entry by entry:
    ``(w_j / w_k) / (c_k - c_j)`` off the diagonal, minus the row sum on it."""
    w, c = table.weights, table.family.nodes
    dmat = np.zeros((c.size, c.size))
    for k in range(c.size):
        for j in range(c.size):
            if j != k:
                dmat[k, j] = (w[j] / w[k]) / (c[k] - c[j])
        dmat[k, k] = -dmat[k].sum()
    return dmat


def dense_multipliers(t):
    """Every eigenvalue of ``t`` (``numpy.linalg.eigvals``) as complex128,
    by decreasing modulus, then by angle."""
    vals = np.linalg.eigvals(t).astype(complex)
    return vals[np.lexsort((np.angle(vals), -np.abs(vals)))]


def rk4_method_of_steps(terms, psi, t_end, step):
    """Integrate ``y'(t) = sum_k A_k(t) y(t - tau_k)`` from history ``psi``.

    ``terms`` is a list of ``(delay, coeff)`` with ``coeff(t)`` a (d, d)
    matrix and every positive delay much larger than ``step``. Returns a
    dense evaluator of y on ``[t0 - max_delay, t_end]``.
    """
    psi0 = np.atleast_1d(np.asarray(psi(0.0), dtype=float))
    d = psi0.size
    terms = [(float(tk), ck) for tk, ck in terms]
    ts = [0.0]
    ys = [psi0]
    fs = []

    def hist(t):
        if t <= 0.0:
            return np.atleast_1d(np.asarray(psi(t), dtype=float))
        # cubic Hermite on the stored steps
        i = min(int(np.floor(t / step)), len(ts) - 2)
        t0, t1 = ts[i], ts[i + 1]
        th = (t - t0) / (t1 - t0)
        h00 = (1 + 2 * th) * (1 - th) ** 2
        h10 = th * (1 - th) ** 2
        h01 = th * th * (3 - 2 * th)
        h11 = th * th * (th - 1)
        return (
            h00 * ys[i] + h01 * ys[i + 1]
            + (t1 - t0) * (h10 * fs[i] + h11 * fs[i + 1])
        )

    def deriv(t, y_now):
        out = np.zeros(d)
        for tk, ck in terms:
            arg = y_now if tk == 0.0 else hist(t - tk)
            out += np.atleast_2d(ck(t)) @ arg
        return out

    n = int(round(t_end / step))
    y = psi0
    t = 0.0
    fs.append(deriv(t, y))
    for _ in range(n):
        k1 = deriv(t, y)
        k2 = deriv(t + step / 2, y + step / 2 * k1)
        k3 = deriv(t + step / 2, y + step / 2 * k2)
        k4 = deriv(t + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += step
        ts.append(t)
        ys.append(y)
        fs.append(deriv(t, y))

    return hist


def orbit_guess_per_call(problem, y0, t_settle, step=0.01, periods_back=3):
    """``integrate_orbit_guess`` with a fresh per-stage evaluator.

    Every ``u(theta)`` call interpolates each component over the whole
    accepted history; a scalar ``theta == 0`` returns the stage value.
    """
    tau = problem.tau
    d = problem.d
    nhist = int(np.ceil(tau / step)) + 1
    nsteps = int(np.ceil(t_settle / step))
    ts = np.empty(nhist + nsteps)
    ys = np.empty((nhist + nsteps, d))
    ts[:nhist] = np.linspace(-tau, 0.0, nhist)
    ys[:nhist] = y0[None, :]

    filled = nhist

    def u_at(t_now, y_now):
        def u(theta):
            theta = np.asarray(theta, dtype=float)
            t_abs = t_now + theta
            out = np.empty(theta.shape + (d,))
            for c in range(d):
                out[..., c] = np.interp(t_abs, ts[:filled], ys[:filled, c])
            if theta.ndim == 0 and theta == 0.0:
                return np.asarray(y_now, dtype=float)
            return out
        return u

    def f(t_now, y_now):
        return np.asarray(problem.rhs(u_at(t_now, y_now)), dtype=float)

    t = 0.0
    y = np.asarray(y0, dtype=float)
    for _ in range(nsteps):
        k1 = f(t, y)
        k2 = f(t + step / 2, y + step / 2 * k1)
        k3 = f(t + step / 2, y + step / 2 * k2)
        k4 = f(t + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += step
        ts[filled] = t
        ys[filled] = y
        filled += 1

    tail = slice(filled - int(0.6 * nsteps), filled)
    level = ys[tail, 0].mean()
    sig = ys[tail, 0] - level
    tt = ts[tail]
    up = np.nonzero((sig[:-1] < 0) & (sig[1:] >= 0))[0]
    if up.size < periods_back + 1:
        raise RuntimeError("not enough oscillations to estimate a period")
    cross = tt[up] - sig[up] * (tt[up + 1] - tt[up]) / (sig[up + 1] - sig[up])
    period = float(np.mean(np.diff(cross[-(periods_back + 1):])))
    t0 = float(cross[-1] - period)

    def profile(s):
        s = np.asarray(s, dtype=float)
        t_abs = t0 + s * period
        out = np.empty(s.shape + (d,))
        for c in range(d):
            out[..., c] = np.interp(t_abs, ts[:filled], ys[:filled, c])
        return out

    return profile, period
