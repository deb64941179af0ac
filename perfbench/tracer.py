"""Spans around the calls into each layer of the solver, kept in memory.

The tracer replaces a module attribute with a wrapper, so it sees exactly
the calls that go through the name the caller looks up (for example
`coopmec.p1.lp_solve` and `coopmec.p2.lp_solve`, not `coopmec.lp.lp_solve`).
A name that no longer exists is listed as absent and skipped; the layers
it fed then read zero.

Each span holds its kind, its parent span, and its start and end in
process CPU seconds. A layer's self time is its span minus the time its
child spans cover.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: (module, attribute, span kind) of every traced name
TARGETS = (
    ("coopmec.ellipsoid", "ellipsoid_run", "ellipsoid"),
    ("coopmec.p1", "eval_dual_restricted", "dual"),
    ("coopmec.p1", "lp_solve", "lp"),
    ("coopmec.p2", "lp_solve", "lp"),
    ("coopmec.p1", "recover_primal", "recovery"),
    ("coopmec.p1", "solve_restricted", "ascent"),
    ("coopmec.p2", "solve_restricted", "ascent"),
    ("coopmec.bench", "solve_restricted", "ascent"),
    ("coopmec.p1", "lmax_partial", "capacity"),
    ("coopmec.p2", "lmax_binary", "capacity"),
    ("coopmec.bench", "lmax_binary", "capacity"),
    ("coopmec.p1", "max_kkt_residual", "kkt"),
    ("coopmec.p1", "_polish_inactive_routes", "polish"),
    ("coopmec.p1", "_face_polish", "polish"),
    ("coopmec.cli", "run_benchmark", "op"),
)

SCHEMES = ("local", "comp-partial", "comm-partial", "comp-binary",
           "comm-binary", "joint-partial", "joint-binary")


class Tracer:
    def __init__(self):
        self.kinds: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = array("i")
        self.notes: dict[int, object] = {}
        self.absent: list[str] = []
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _kind_id(self, kind: str) -> int:
        if kind not in self._kind_ids:
            self._kind_ids[kind] = len(self.kinds)
            self.kinds.append(kind)
        return self._kind_ids[kind]

    def wrap(self, fn, kind: str, note=None):
        """`fn` recording one span per call; `note(args, result)` may
        attach a detail to the span."""
        k = self._kind_id(kind)
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        stack, errors, notes = self._stack, self.errors, self.notes
        clock = time.process_time

        def traced(*args, **kwargs):
            i = len(kinds)
            kinds.append(k)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                ends[i] = clock()
                stack.pop()
                errors.append(i)
                raise
            ends[i] = clock()
            stack.pop()
            if note is not None:
                notes[i] = note(args, out)
            return out

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every name of TARGETS found in `modules` (name -> module)."""
        for mod_name, attr, kind in TARGETS:
            mod = modules.get(mod_name)
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if kind == "ellipsoid":
                wrapped = self.wrap(self._with_traced_oracle(fn), kind,
                                    note=lambda a, r: (r.iterations, r.converged))
            elif kind == "op":
                wrapped = self.wrap(fn, kind, note=lambda a, r: a[0])
            else:
                wrapped = self.wrap(fn, kind)
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _with_traced_oracle(self, run):
        def ellipsoid_run(oracle, *args, **kwargs):
            return run(self.wrap(oracle, "cut_oracle"), *args, **kwargs)
        return ellipsoid_run

    def op(self, scheme: str, fn, *args):
        """Call `fn(*args)` as one benchmark operation of `scheme`."""
        return self.wrap(fn, "op", note=lambda a, r: scheme)(*args)

    def span(self, kind: str, fn, *args):
        return self.wrap(fn, kind)(*args)

    # -- after the run ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (kind id, parent, start, end) and the kind names."""
        np.savez(path, kinds=np.array(self.kinds), **self.arrays())

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals per round of the workload, and their ratios."""
        a = self.arrays()
        kind, parent = a["kind"], a["parent"]
        dur = a["end"] - a["start"]
        n = kind.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child

        def mask(name: str) -> np.ndarray:
            k = self._kind_ids.get(name)
            return kind == k if k is not None else np.zeros(n, bool)

        def under(name: str) -> np.ndarray:
            """Spans with a `name` span among their ancestors."""
            hit = mask(name)
            inside = np.zeros(n, bool)
            inside[has_parent] = hit[parent[has_parent]]
            while True:
                grown = inside.copy()
                grown[has_parent] |= inside[parent[has_parent]]
                if np.array_equal(grown, inside):
                    return inside
                inside = grown

        def count(name: str) -> int:
            return int(mask(name).sum())

        def cpu(name: str, of=dur) -> float:
            return float(of[mask(name)].sum())

        def ratio(x: float, y: float) -> float:
            return x / y if y else 0.0

        ell = [v for i, v in self.notes.items() if kind[i] == self._kind_ids.get("ellipsoid")]
        iterations = sum(it for it, _ in ell)
        unconverged = sum(1 for _, ok in ell if not ok)
        errors = np.frombuffer(self.errors, dtype=np.int32)
        rec = mask("recovery")

        m = {
            "ellipsoid.runs": count("ellipsoid"),
            "ellipsoid.iterations": iterations,
            "ellipsoid.unconverged_runs": unconverged,
            "ellipsoid.self_cpu_s": cpu("ellipsoid", own),
            "ellipsoid.us_per_iter": 1e6 * ratio(cpu("ellipsoid", own), iterations),
            "dual.evals": count("dual"),
            "dual.cpu_s": cpu("dual"),
            "dual.us_per_eval": 1e6 * ratio(cpu("dual"), count("dual")),
            "p1.cut_oracle_self_cpu_s": cpu("cut_oracle", own),
            "lp.solves": count("lp"),
            "lp.cpu_s": cpu("lp"),
            "lp.us_per_solve": 1e6 * ratio(cpu("lp"), count("lp")),
            "recovery.calls": count("recovery"),
            "recovery.cpu_s": cpu("recovery"),
            "recovery.lp_solves_per_call": ratio(
                int((mask("lp") & under("recovery")).sum()), count("recovery")),
            "recovery.errors": int(rec[errors].sum()) if errors.size else 0,
            "polish.calls": count("polish"),
            "polish.cpu_s": cpu("polish"),
            "ascent.calls": count("ascent"),
            "ascent.cpu_s": cpu("ascent"),
            "ascent.ellipsoid_runs_per_call": ratio(
                int((mask("ellipsoid") & under("ascent")).sum()), count("ascent")),
            "capacity.calls": count("capacity"),
            "capacity.cpu_s": cpu("capacity"),
            "kkt.calls": count("kkt"),
            "kkt.cpu_s": cpu("kkt"),
            "cli.sweep_overhead_cpu_s": cpu("run_sweep", own),
        }
        op_k = self._kind_ids.get("op")
        for s in SCHEMES:
            m[f"scheme.{s}.cpu_s"] = sum(
                float(dur[i]) for i, v in self.notes.items()
                if kind[i] == op_k and v == s)
        # totals are per round; ratios need no scaling
        for name in list(m):
            if name.endswith(("_per_iter", "_per_eval", "_per_solve", "_per_call")):
                continue
            m[name] = m[name] / rounds
        return m
