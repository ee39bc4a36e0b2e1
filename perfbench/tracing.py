"""Span tracer that measures ncym's layers from outside the library.

``Tracer.install`` replaces public names of the package (and, for the finite
workload, ``numpy.linalg.svd``) where the library looks them up, with wrappers
that open a span around the call; ``uninstall`` puts the originals back.  A
span records its name, start, end, parent and experiment id; spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.  Counts are taken at the same
boundaries.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

#: (module attribute path inside ncym, attribute, span name).  Class dunders are
#: patched on the class, module functions in the module the library calls
#: them through, so internal calls are caught as well.
TARGETS = (
    ("torus.TorusElement", "__add__", "torus.add"),
    ("torus.TorusElement", "__sub__", "torus.add"),
    ("torus.TorusElement", "adjoint", "torus.adjoint"),
    ("torus.TorusElement", "derivation", "torus.derivation"),
    ("yangmills", "tensor_embed", "torus.tensor_embed"),
    ("yangmills.TorusMatrix", "__matmul__", "yangmills.matmul"),
    ("yangmills", "curvature", "yangmills.curvature"),
    ("yangmills", "ym_value", "yangmills.ym_value"),
    ("yangmills", "ym_gradient", "yangmills.ym_gradient"),
    ("yangmills", "hs_inner", "yangmills.hs_inner"),
    ("yangmills", "compatibility_deviation", "yangmills.compatibility"),
    ("yangmills", "product_connection", "yangmills.product_connection"),
    ("yangmills", "is_critical", "yangmills.is_critical"),
    ("finite", "omega1_space", "finite.omega1"),
    ("finite", "pi_omega2_space", "finite.pi_omega2"),
    ("finite", "junk_space", "finite.junk"),
    ("finite.FiniteTriple", "__init__", "finite.triple_new"),
    ("finite", "contains_subspace", "finite.subspace_compare"),
    ("finite", "subspaces_equal", "finite.subspace_compare"),
    ("finite", "intersection_dim", "finite.subspace_compare"),
    ("sampling", "rng", "sampling"),
    ("sampling", "spawn", "sampling"),
    ("sampling", "random_theta", "sampling"),
    ("sampling", "random_element", "sampling"),
    ("sampling", "random_vector", "sampling"),
    ("config", "parse", "config.parse"),
    ("cli", "run", "cli.run"),
    ("cli", "_emit", "cli.emit"),
)

STAR = "torus.star"
SVD = "finite.svd"
MINIMIZE = "yangmills.minimize"


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """In-memory spans plus per-name call counts, self times and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per closed span, appended in closing order
        self.ids = array("q")
        self.parents = array("q")
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.experiments = array("q")
        self.experiment = -1
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, name, start, time covered by children, parent id]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0, parent])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, covered, parent = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - covered
        if self._stack:
            self._stack[-1][3] += duration
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.ids.append(span_id)
        self.parents.append(parent)
        self.name_ids.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.experiments.append(self.experiment)

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def count_max(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def reset(self) -> None:
        """Drop spans and totals in place; the installed wrappers keep working."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        for col in (self.ids, self.parents, self.name_ids, self.starts, self.ends, self.experiments):
            del col[:]
        self.names.clear()
        self._name_ids.clear()
        self.calls.clear()
        self.self_ns.clear()
        self.counters.clear()
        self.experiment = -1

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    def _wrap_star(self, fn, element_type):
        enter, exit_, count, count_max = self.enter, self.exit, self.count, self.count_max

        @functools.wraps(fn)
        def traced(a, b):
            if not isinstance(b, element_type):
                return fn(a, b)  # scalar multiple, not a star product
            pairs = len(a.coeffs) * len(b.coeffs)
            enter(STAR)
            try:
                out = fn(a, b)
            finally:
                exit_()
            count("torus.star.pairs", pairs)
            count("torus.star.calls_gt512", pairs > 512)
            count("torus.star.out_terms", len(out.coeffs))
            count_max("torus.star.max_support", max(len(a.coeffs), len(b.coeffs), len(out.coeffs)))
            return out

        return traced

    def _wrap_minimize(self, fn):
        enter, exit_, calls, count = self.enter, self.exit, self.calls, self.count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = calls.get("yangmills.ym_value", 0)
            enter(MINIMIZE)
            try:
                conn, trace = fn(*args, **kwargs)
            finally:
                exit_()
            iterations = len(trace) - 1
            trials = calls.get("yangmills.ym_value", 0) - before - 1
            count("yangmills.minimize.iterations", iterations)
            count("yangmills.minimize.backtracks", trials - iterations)
            return conn, trace

        return traced

    def _wrap_svd(self, fn):
        enter, exit_, count, count_max = self.enter, self.exit, self.count, self.count_max

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            rows, cols = np.shape(a)[-2:]
            enter(SVD)
            try:
                return fn(a, *args, **kwargs)
            finally:
                exit_()
                count("finite.svd.elements", rows * cols)
                count_max("finite.svd.max_rows", rows)
                count_max("finite.svd.max_cols", cols)

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self, package, svd: bool) -> None:
        """Wrap the TARGETS of ``package`` (the imported ``ncym``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        element = package.torus.TorusElement
        self._patch(element, "__mul__", self._wrap_star(vars(element)["__mul__"], element))
        self._patch(package.yangmills, "minimize", self._wrap_minimize(package.yangmills.minimize))
        for path, attr, name in TARGETS:
            owner = _resolve(package, path)
            self._patch(owner, attr, self._wrap(name, vars(owner)[attr]))
        if svd:
            self._patch(np.linalg, "svd", self._wrap_svd(np.linalg.svd))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def span_arrays(self) -> dict:
        """Closed spans as numpy arrays, ordered by span id."""
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64), kind="stable")
        cols = {
            "id": self.ids,
            "parent": self.parents,
            "name": self.name_ids,
            "start_ns": self.starts,
            "end_ns": self.ends,
            "experiment": self.experiments,
        }
        return {key: np.frombuffer(col, dtype=np.int64)[order] for key, col in cols.items()}

    def check_spans(self) -> list[str]:
        """Problems with the recorded span trees (empty when consistent).

        Every span closes inside its parent and belongs to its parent's
        experiment, every self time is nonnegative, the self times of each
        experiment add up to its root span's duration, and the per-name self
        times kept while running agree with the ones derived from the spans.
        """
        if self._stack:
            return ["spans left open"]
        s = self.span_arrays()
        n = len(s["id"])
        if n == 0:
            return []
        problems = []
        first = int(s["id"][0])
        if not np.array_equal(s["id"], np.arange(first, first + n)):
            return ["span ids are not contiguous"]
        duration = s["end_ns"] - s["start_ns"]
        child = s["parent"] >= 0
        pidx = s["parent"][child] - first
        if (pidx < 0).any():
            return ["a span's parent was not recorded"]
        covered = np.zeros(n, dtype=np.int64)
        np.add.at(covered, pidx, duration[child])
        self_ns = duration - covered
        if (self_ns < 0).any():
            problems.append("a span has negative self time")
        if (s["start_ns"][child] < s["start_ns"][pidx]).any() or (s["end_ns"][child] > s["end_ns"][pidx]).any():
            problems.append("a child span is not nested in its parent")
        if (s["experiment"][child] != s["experiment"][pidx]).any():
            problems.append("a child span belongs to another experiment than its parent")
        roots = ~child
        exps = s["experiment"]
        for exp in np.unique(exps):
            mine = exps == exp
            if int(self_ns[mine].sum()) != int(duration[mine & roots].sum()):
                problems.append(f"experiment {int(exp)}: self times do not add up to the root span")
        for name_id, name in enumerate(self.names):
            if int(self_ns[s["name"] == name_id].sum()) != self.self_ns.get(name, 0):
                problems.append(f"{name}: running self time disagrees with the spans")
        return problems

    def write(self, path) -> None:
        arrays = self.span_arrays()
        np.savez_compressed(path, names=np.array(self.names), **arrays)
