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
way the periodic solver did before it assembled its Jacobian analytically;
``dense_jacobian`` keeps the analytic Jacobian as it was summed before
``row_sums`` (a 4-D ``np.add.at`` into a dense temporary, scaled afterwards),
which the library's matches to roundoff, also where ``rhs`` uses its own
quadrature and finite differences cannot.
``prolong_weights``, ``prolong_eval``, ``integral_rows`` and
``kernel_quadrature`` are dense, one-window conveniences over the library's
sparse weight builders; ``restrict`` samples a scalar-style callback node by
node. ``triple_row_sums`` keeps the earlier ``row_sums``, which summed
the points of every row and returned flat nonzero ``(row, column, value)``
triples; the library's row chunks, flattened with their zeros dropped, are
those triples bit for bit. ``searchsorted_groups`` keeps the earlier
construction of a block's row groups from such triples (a binary search of
each row among the group edges), which the library must reproduce bit for bit. ``scattered_monodromy`` forms ``T`` with
its own block forward substitution, the diagonal inverse applied after the
off-diagonal products, which the library's folded one matches to roundoff.
``loop_forward_grid``, ``loop_history_grid`` and ``loop_refine_mesh`` keep
the earlier piece-by-piece grid and refinement builders (the history side by
a right-to-left walk over windows of ``omega``, each piece's node indices
counted from where the piece before ends), which the library's array
builders must reproduce bit for bit, the piece layout and errors included.
"""

import numpy as np
import scipy.linalg

from pwfloquet.interp import (NodalFunction, breakpoint_weights, integral_weights,
                              prolong_pairs, window_rule)
from pwfloquet.mesh import COINCIDENCE_RTOL, SLIVER_RTOL, GridSide, Mesh
from pwfloquet.model import PiecewiseSolution, term_values


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


def dense_jacobian(sys, state, g):
    """The BVP Jacobian of ``sys`` (a ``bvp._System``) at ``state`` as the
    solver built it before ``row_sums``: every term's nodal weights scattered
    by a 4-D ``np.add.at`` into a dense ``(points, d, nodes, d)`` array, its
    period derivative into ``(points, d)``, both scaled by the row scale
    afterwards and subtracted from the linear rows."""
    w = state[-1]
    p = state[:-1].reshape(sys.n_nodes, sys.d)
    npts, d = sys.colloc.size, sys.d
    jp = np.zeros((npts, d, sys.n_nodes, d))
    dgdw = np.zeros((npts, d))
    dp = PiecewiseSolution(sys.side.breakpoints, p[sys.side.pieces]).derivative().values

    def add(term, c, s, dsdw, coeff):
        ot, os = sys.problem.block_offset(term.target), sys.problem.block_offset(term.source)
        pt, qs = coeff.shape[1:]
        cols, lw = prolong_pairs(sys.side, s)
        np.add.at(jp, (c[:, None, None, None], ot + np.arange(pt)[:, None, None],
                       cols[:, None, :, None], os + np.arange(qs)),
                  coeff[:, :, None, :] * lw[:, None, :, None])
        slope = np.einsum("nk,nkd->nd", lw, dp[cols[:, 0] // sys.m])[:, os:os + qs]
        np.add.at(dgdw, (c[:, None], ot + np.arange(pt)),
                  np.einsum("nij,nj->ni", coeff, slope) * dsdw[:, None])

    t = w * sys.colloc
    discrete, distributed = sys.problem.linearize_terms(
        lambda tt: sys.values_at(p, np.asarray(tt, float) / w), w)
    for term in discrete:
        theta = np.full(npts, -term.delay)
        add(term, np.arange(npts), np.mod(sys.colloc + theta / w, 1.0), -theta / w**2,
            term_values(term, sys.problem, t))
    for term in distributed:
        c, s, theta, wq = sys._windows(term, w)
        add(term, c, s, -theta / w**2,
            w * wq[:, None, None] * term_values(term, sys.problem, t[c], theta))

    scale = np.where(sys.differential, w, 1.0)
    jp *= scale[:, None, None]
    jac = np.zeros((sys.n_unknowns, sys.n_unknowns))
    jac[:, :-1] = sys.linear
    jac[: npts * d, :-1] -= jp.reshape(npts * d, -1)
    jac[: npts * d, -1] = -(scale * dgdw + np.where(sys.differential, g, 0.0)).ravel()
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


def triple_row_sums(owner, cols, w, coeff, d: int, ot: int, os: int):
    """Nonzero triples ``(rows, columns, values)`` of ``coeff[k] (x) w[k]``:
    row ``owner[k] d + ot + i``, column ``cols[k] d + os + j``; the points of
    a row (``owner`` is nondecreasing) are summed first, over the range of
    columns they touch, so no ``(row, column)`` pair repeats."""
    new = np.r_[True, owner[1:] != owner[:-1]]
    first = np.flatnonzero(new)
    lo = np.minimum.reduceat(cols[:, 0], first)
    width = np.maximum.reduceat(cols[:, -1], first) - lo + 1
    shift = np.cumsum(width) - width - lo
    flat = (cols + shift[np.cumsum(new) - 1, None]).ravel()
    row = np.repeat(owner[first], width)
    node = np.arange(width.sum()) - np.repeat(shift, width)
    out = [(row * d + ot + i, node * d + os + j,
            np.bincount(flat, (coeff[:, i, j, None] * w).ravel(), minlength=node.size))
           for i, j in np.ndindex(coeff.shape[1:])]
    rows, cols, vals = (np.concatenate(part) for part in zip(*out))
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep]


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


def scattered_monodromy(parts, side, d):
    """``T`` formed whole: ``B1`` dense, and ``B2 X`` with ``X = (I - A2)^{-1}
    A1`` added into the sorted columns where ``A1`` is nonzero. ``X`` comes
    from a block forward substitution over the forward grid side ``side``,
    ``X_j = D_j^{-1} (A1_j + L_j X[cols_j] + G_j S)``, with ``A1`` dense and
    the integrals ``S`` of ``X`` from ``breakpoint_weights``."""
    used = np.unique(np.concatenate([at for _, at, _ in parts["A1"].groups]))
    a1 = np.zeros((parts["A1"].shape[0], used.size), order="F")
    for rows, at, w in parts["A1"].groups:
        a1[rows, np.searchsorted(used, at)] = w
    n = a1.shape[0]
    integrals = np.kron(breakpoint_weights(side), np.eye(d))
    x = np.zeros((parts["A2"].shape[1], used.size))
    for j, (rows, at, w) in enumerate(parts["A2"].groups):
        own = (at >= rows.start) & (at < n)
        diag = np.eye(rows.stop - rows.start)
        diag[:, at[own] - rows.start] -= w[:, own]
        x[rows] = np.linalg.inv(diag) @ (a1[rows] + w[:, ~own] @ x[at[~own]])
        x[n + (j + 1) * d:n + (j + 2) * d] = integrals[(j + 1) * d:(j + 2) * d] @ x[:n]
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
    # each piece's node indices start at the last node of the piece before
    index, start = [], 0
    for p in pieces:
        index.append(np.arange(start, start + len(p)))
        start += len(p) - 1
    return GridSide(label=label, breakpoints=breakpoints, family=family, nodes=nodes,
                    pieces=np.array(index))


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
    # build_history_grid's documented refusal: over 10^6 windows are never walked
    if not max(np.ceil((tau - ctol) / omega), 0.0) + 1 <= 1_000_000:  # nan included
        raise RuntimeError(f"tau / omega = {tau / omega} needs over 10^6 history windows")
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

    Every ``u(theta)`` call evaluates the cubic Hermite interpolant of the
    whole accepted history at ``t + theta``, holding the initial value
    before 0 and the last accepted value beyond the last step. A step's
    ``k1`` is the slope at its start; the newest accepted value, whose own
    ``k1`` comes with the next step, borrows the slope of the value before
    it. A scalar ``theta == 0`` returns the stage value.
    """
    d = problem.d
    nsteps = int(np.ceil(t_settle / step))
    ts = np.empty(nsteps + 1)
    ys = np.empty((nsteps + 1, d))
    slopes = np.empty((nsteps, d))
    ts[0] = 0.0
    ys[0] = y0

    filled = 1

    def hermite(t_abs):
        out = np.empty(np.shape(t_abs) + (d,))
        if filled == 1:
            out[...] = ys[0]
            return out
        hs = step * np.concatenate([slopes[:filled - 1], slopes[filled - 2:filled - 1]])
        j = np.clip(np.searchsorted(ts[:filled], t_abs, "right") - 1, 0, filled - 2)
        s = np.clip((t_abs - ts[j]) / step, 0.0, 1.0)[..., None]
        left, dy = ys[j], ys[j + 1] - ys[j]
        hf0, hf1 = hs[j], hs[j + 1]
        out[...] = left + s * (hf0 + s * (3 * dy - 2 * hf0 - hf1 + s * (hf0 + hf1 - 2 * dy)))
        return out

    def u_at(t_now, y_now):
        def u(theta):
            theta = np.asarray(theta, dtype=float)
            if theta.ndim == 0 and theta == 0.0:
                return np.asarray(y_now, dtype=float)
            return hermite(t_now + theta)
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
        slopes[filled - 1] = k1
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
        return hermite(t0 + np.asarray(s, dtype=float) * period)

    return profile, period
