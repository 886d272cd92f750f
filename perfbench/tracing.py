"""Per-layer spans and counters, recorded from outside the library.

The tracer wraps entry points at the module attributes the library resolves
at call time (``pwfloquet.monodromy.build_grid``, ``scipy.linalg.eig``, ...)
and wraps callbacks by rebuilding problems and terms through the public
dataclasses. Nothing under ``src/`` is modified.

A span records name, start, end, parent span and case id; it is kept in
memory and written out when the run ends. High-frequency leaf calls (about
200k interpolation-weight and kernel calls per quadratic-RE case) are not
stored one span each: they are aggregated into ``(calls, seconds)`` per
``(parent span, leaf)`` pair, so the traced run's memory stays bounded. A
span's self time is its duration minus the time covered by its child spans
and leaf calls; calls are sequential on one thread, so the covered time is
the sum of the children's durations.

This module imports only the standard library: the workload process starts
its set-up timer before numpy is loaded.
"""

from __future__ import annotations

import dataclasses
import importlib
import time

LAYERS = ("mesh", "interp", "model", "monodromy", "bvp", "cli")


class Span:
    __slots__ = ("id", "name", "parent", "case", "start", "end", "child_s")

    def __init__(self, id_, name, parent, case, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.case = case
        self.start = start
        self.end = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "case": self.case, "start": self.start, "end": self.end,
                "self_s": self.self_s}


class Tracer:
    """Spans, aggregated leaf counters and per-call facts of traced cases."""

    def __init__(self):
        self.spans: list[Span] = []
        # (parent span name, leaf name) -> [calls, seconds]
        self.leaves: dict[tuple[str, str], list] = {}
        # fact name -> [sum, samples]
        self.facts: dict[str, list] = {}
        self.cases = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name, parent.id if parent else None,
                    parent.case if parent else self._next_id, time.perf_counter())
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration
        self.spans.append(span)

    def begin_case(self) -> None:
        self._open("case")

    def end_case(self) -> None:
        self._close(self._stack[0])
        self.cases += 1

    def note(self, fact: str, value: float) -> None:
        acc = self.facts.setdefault(fact, [0.0, 0])
        acc[0] += float(value)
        acc[1] += 1

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, on_return=None, on_args=None):
        """Wrap ``fn`` in a span; ``on_args`` may rewrite the arguments and
        ``on_return(args, result)`` records facts after the span closes."""
        tracer = self

        def wrapper(*args, **kwargs):
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            s = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if on_return is not None:
                on_return(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a high-frequency call: counted and timed, no span stored."""
        stack, leaves = self._stack, self.leaves
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                parent = stack[-1]
                parent.child_s += dt
                acc = leaves.get((parent.name, name))
                if acc is None:
                    leaves[(parent.name, name)] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt

        wrapper.__wrapped__ = fn
        wrapper.traced_leaf = True
        return wrapper

    # -- installing ----------------------------------------------------------

    def patch(self, module: str, attr: str, make_wrapper) -> None:
        owner = importlib.import_module(module)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- callbacks -----------------------------------------------------------

    def instrument_terms(self, discrete, distributed):
        discrete = tuple(
            dataclasses.replace(t, coeff=self.leaf("model.coeff", t.coeff))
            for t in discrete
        )
        distributed = tuple(
            dataclasses.replace(t, kernel=self.leaf("model.kernel", t.kernel))
            for t in distributed
        )
        return discrete, distributed

    def instrument_equation(self, eq):
        if eq is None:
            return None
        discrete, distributed = self.instrument_terms(eq.discrete, eq.distributed)
        return dataclasses.replace(eq, discrete=discrete, distributed=distributed)

    def instrument_problem(self, problem):
        """Rebuild a NonlinearProblem with a counted ``rhs`` and with
        ``linearize_terms`` returning counted coefficient callbacks."""
        if problem is None or getattr(problem.rhs, "traced_leaf", False):
            return problem
        changes = {}
        if problem.rhs is not None:
            changes["rhs"] = self.leaf("model.rhs", problem.rhs)
        if problem.linearize_terms is not None:
            lin = problem.linearize_terms

            def linearize_terms(ev, omega):
                return self.instrument_terms(*lin(ev, omega))

            changes["linearize_terms"] = linearize_terms
        return dataclasses.replace(problem, **changes)

    def instrument_builtin(self, built):
        return dataclasses.replace(
            built, problem=self.instrument_problem(built.problem),
            linear=self.instrument_equation(built.linear),
        )

    def install(self) -> None:
        """Wrap the library's entry points for the next traced case."""
        import numpy as np

        def grid_facts(args, grid):
            self.note("mesh.n_fwd", grid.forward.n)
            self.note("mesh.n_hist", grid.history.n)

        def disc_facts(args, disc):
            a2 = disc.blocks["A2"]
            nf, nh = a2.shape[0], disc.T.shape[0]
            self.note("monodromy.dim", nh)
            self.note("monodromy.dense_bytes",
                      sum(b.nbytes for b in disc.blocks.values()) + disc.T.nbytes)
            self.note("monodromy.lu.flops", 2.0 / 3.0 * nf**3)
            self.note("monodromy.solve.flops", 2.0 * nf * nf * nh)
            self.note("monodromy.gemm.flops", 2.0 * nh * nf * nh)
            self.note("monodromy.A2.nnz_ratio", np.count_nonzero(a2) / a2.size)
            self.note("mesh.merged_breakpoints", len(disc.merged_breakpoints))

        def multiplier_facts(args, ms):
            # the verdict needs the eigenvalues up to the trivial one and the
            # dominant nontrivial one, in modulus order
            used = 1 if ms.trivial_index is None else ms.trivial_index + 1
            for i in range(len(ms)):
                if i != ms.trivial_index and not ms.spurious[i]:
                    used = max(used, i + 1)
                    break
            self.note("monodromy.eig.used_ratio", used / len(ms))

        def bvp_facts(args, result):
            bvp = args[0]
            self.note("bvp.newton_iters", result.iterations)
            self.note("bvp.unknowns",
                      bvp.problem.d * (bvp.mesh.L * bvp.degree + 1) + 1)

        def instrument_orbit_args(args, kwargs):
            return (self.instrument_problem(args[0]),) + tuple(args[1:]), kwargs

        def gecon_lookup(original):
            def get_lapack_funcs(names, *args, **kwargs):
                funcs = original(names, *args, **kwargs)
                if names == "gecon":
                    return self.span("monodromy.rcond", funcs)
                return funcs
            return get_lapack_funcs

        patch = self.patch
        patch("pwfloquet.monodromy", "build_grid",
              lambda f: self.span("mesh.build_grid", f, grid_facts))
        patch("pwfloquet.monodromy", "prolong_pairs",
              lambda f: self.leaf("interp.prolong_pairs", f))
        patch("pwfloquet.monodromy", "integral_weights",
              lambda f: self.leaf("interp.integral_weights", f))
        patch("pwfloquet.monodromy", "assemble",
              lambda f: self.span("monodromy.assemble", f, disc_facts))
        patch("pwfloquet.monodromy", "multipliers",
              lambda f: self.span("monodromy.multipliers", f, multiplier_facts))
        patch("scipy.linalg", "lu_factor",
              lambda f: self.span("monodromy.lu_factor", f))
        patch("scipy.linalg", "lu_solve",
              lambda f: self.span("monodromy.lu_solve", f))
        patch("scipy.linalg", "eig", lambda f: self.span("monodromy.eig", f))
        patch("scipy.linalg", "get_lapack_funcs", gecon_lookup)
        patch("pwfloquet.bvp", "solve_periodic",
              lambda f: self.span("bvp.solve_periodic", f, bvp_facts))
        patch("numpy.linalg", "solve", lambda f: self.span("bvp.linsolve", f))
        patch("pwfloquet.model", "linearize",
              lambda f: self.span("model.linearize", f))
        patch("pwfloquet.model", "integrate_orbit_guess",
              lambda f: self.span("model.integrate_orbit_guess", f,
                                  on_args=instrument_orbit_args))
        patch("pwfloquet.model", "builtin",
              lambda f: lambda *a, **k: self.instrument_builtin(f(*a, **k)))
        patch("pwfloquet.cli", "main", lambda f: self.span("cli.main", f))

    # -- report --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-case means of span times, leaf counts and facts."""
        n = max(self.cases, 1)
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0.0) + s.duration
            self_time[s.name] = self_time.get(s.name, 0.0) + s.self_s
            calls[s.name] = calls.get(s.name, 0) + 1
        leaf_calls: dict[str, int] = {}
        for (parent, name), (count, secs) in self.leaves.items():
            total[name] = total.get(name, 0.0) + secs
            self_time[name] = self_time.get(name, 0.0) + secs
            leaf_calls[name] = leaf_calls.get(name, 0) + count

        out: dict[str, float] = {}
        for name in ("mesh.build_grid", "interp.prolong_pairs",
                     "interp.integral_weights", "model.kernel", "model.coeff",
                     "model.rhs", "model.integrate_orbit_guess", "model.linearize",
                     "monodromy.assemble", "monodromy.lu_factor", "monodromy.rcond",
                     "monodromy.lu_solve", "monodromy.eig", "monodromy.multipliers",
                     "bvp.solve_periodic", "bvp.linsolve", "cli.main"):
            out[f"{name}.s"] = total.get(name, 0.0) / n
        for name in ("mesh.build_grid", "interp.prolong_pairs",
                     "interp.integral_weights", "model.kernel", "model.coeff",
                     "model.rhs"):
            out[f"{name}.calls"] = (calls.get(name, 0) + leaf_calls.get(name, 0)) / n
        for name in ("monodromy.assemble", "bvp.solve_periodic", "cli.main"):
            out[f"{name}.self_s"] = self_time.get(name, 0.0) / n
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_time.items() if k.split(".")[0] == layer) / n
        out["harness.self_s"] = self_time.get("case", 0.0) / n

        def fact_sum(fact):
            return self.facts.get(fact, [0.0, 0])[0] / n

        def fact_mean(fact):
            acc = self.facts.get(fact, [0.0, 0])
            return acc[0] / acc[1] if acc[1] else 0.0

        for fact in ("mesh.merged_breakpoints", "monodromy.lu.flops",
                     "monodromy.solve.flops", "monodromy.gemm.flops",
                     "bvp.newton_iters", "cli.output_bytes"):
            out[fact] = fact_sum(fact)
        for fact in ("mesh.n_fwd", "mesh.n_hist", "monodromy.dim",
                     "monodromy.dense_bytes", "monodromy.A2.nnz_ratio",
                     "monodromy.eig.used_ratio", "bvp.unknowns"):
            out[fact] = fact_mean(fact)
        out["bvp.residual_evals"] = self.leaves.get(
            ("bvp.solve_periodic", "model.rhs"), [0, 0.0])[0] / n
        return out

    def dump(self) -> dict:
        return {
            "spans": [s.as_dict() for s in self.spans],
            "leaves": [{"parent": p, "name": k, "calls": c, "s": t}
                       for (p, k), (c, t) in sorted(self.leaves.items())],
            "facts": {k: {"sum": v[0], "samples": v[1]}
                      for k, v in sorted(self.facts.items())},
        }
