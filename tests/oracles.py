"""Independent reference computations used by the tests.

These deliberately avoid the library's interpolation and assembly code paths:
the integrator is a fixed-step RK4 method of steps with cubic Hermite
interpolated history, and quadrature checks go through scipy's adaptive
routines. ``orbit_guess_per_call`` keeps the straightforward per-call history
evaluator that ``integrate_orbit_guess`` must reproduce bit for bit.
``dense_monodromy`` forms the monodromy matrix by a dense LU of ``I - A2``,
ignoring its causal block structure. ``fd_jacobian`` and
``central_jacobian`` differentiate the BVP residual column by column, the
way the periodic solver did before it assembled its Jacobian analytically.
``prolong_weights``, ``prolong_eval``, ``integral_rows`` and
``kernel_quadrature`` are dense, one-window conveniences over the library's
sparse weight builders; ``restrict`` samples a scalar-style callback node by
node.
"""

import numpy as np
import scipy.linalg

from pwfloquet.interp import (NodalFunction, breakpoint_weights, integral_weights,
                              prolong_pairs, window_rule)


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
