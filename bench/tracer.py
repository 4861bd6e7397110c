"""Per-layer tracing of spinenav from outside the package.

The tracer wraps a fixed list of spinenav functions and rebinds every
spinenav module's binding of each one, so that a call made through a name
imported into another module (``from .registration import register_points``
in ``simharness``) is traced as well. Spans are kept in compact in-memory
arrays and written out once, when the run ends. Nothing under ``src/`` is
edited; ``uninstall`` restores every binding it replaced.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Functions traced, as "<module>.<function>" under the spinenav package.
TRACED = (
    "cli.main",
    "simharness.run_study", "simharness.run_trial",
    "simharness.run_placement_study", "simharness.generate_phantom",
    "simharness.summarize",
    "meshes.bumpy_ellipsoid",
    "calibration.dlt_calibrate", "calibration.triangulate",
    "calibration.project", "calibration.register_patient_2d",
    "registration.register_points", "registration.fit_rigid",
    "registration.icp_register", "registration.closest_points_on_mesh",
    "registration.verify_registration",
    "kinematics.plan_safe", "kinematics.plan_trajectory", "kinematics.ik",
    "kinematics.jacobian", "kinematics.fk_frames",
    "kinematics.check_collision", "kinematics.densify",
    "planning.validate_plan", "planning.breach_depth",
    "planning.grade_gertzbein",
    "workflow.advance", "workflow.radiation_report",
    "geom.compose", "geom.invert",
)

PACKAGE = "spinenav"


class Tracer:
    """Records one span per call of each traced function.

    A span is (name index, start, end, parent span, op id, raised). The
    parent is the innermost open span of the same thread, so spans of one
    op nest; ``op`` is the id set by ``begin_op``.
    """

    def __init__(self):
        self.names = TRACED
        self.name_idx = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.ops = array.array("i")
        self.raised = array.array("b")
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._replaced = []  # (module, attribute, original)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap each target and rebind every loaded package module's
        reference to it (matched by identity)."""
        if self._replaced:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for idx, target in enumerate(self.names):
            module_name, func_name = target.rsplit(".", 1)
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name)
            wrappers[id(original)] = (original, self._wrap(idx, original))
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replaced.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    @staticmethod
    def _package_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, idx: int, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = tracer._open(idx, stack[-1] if stack else -1)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[span] = 1
                raise
            finally:
                tracer.ends[span] = time.perf_counter()
                stack.pop()

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, idx: int, parent: int) -> int:
        with self._lock:
            span = len(self.starts)
            self.name_idx.append(idx)
            self.parents.append(parent)
            self.ops.append(self.op_id)
            self.raised.append(0)
            self.ends.append(float("nan"))
            self.starts.append(time.perf_counter())
        return span

    # -- results ------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
                "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
                "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
                "op": np.frombuffer(self.ops, dtype=np.int32).copy(),
                "raised": np.frombuffer(self.raised, dtype=np.int8).copy()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    covered = [0.0] * len(start)
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    s_list, e_list, p_list = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = p_list[i]
        if p != current:
            current, reach = p, s_list[p]
        lo = max(s_list[i], reach)
        hi = min(e_list[i], e_list[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.asarray(covered)


def layer_metrics(spans: dict, names, n_ops: int) -> dict:
    """Per-op call counts and self time per traced function and module,
    plus the derived ratios; every metric is present, zero when unused."""
    name = spans["name"]
    self_s = self_times(spans["start"], spans["end"], spans["parent"])
    calls = np.bincount(name, minlength=len(names))
    self_total = np.bincount(name, weights=self_s, minlength=len(names))
    raised = np.bincount(name, weights=spans["raised"], minlength=len(names))
    per_op = 1.0 / max(n_ops, 1)

    out = {}
    module_ms = defaultdict(float)
    for i, full in enumerate(names):
        out[f"{full}.calls"] = calls[i] * per_op
        out[f"{full}.self_ms"] = self_total[i] * 1e3 * per_op
        module_ms[full.split(".")[0]] += self_total[i] * 1e3 * per_op
    for module in dict.fromkeys(n.split(".")[0] for n in names):
        out[f"{module}.self_ms"] = module_ms[module]

    idx = {n: i for i, n in enumerate(names)}
    out["kinematics.plan_safe.rolls_per_plan"] = _ratio(
        calls[idx["kinematics.plan_trajectory"]], calls[idx["kinematics.plan_safe"]])
    out["kinematics.ik.error_frac"] = _ratio(
        raised[idx["kinematics.ik"]], calls[idx["kinematics.ik"]])
    out["registration.icp_register.iterations"] = _icp_iterations(
        spans, idx["registration.icp_register"],
        idx["registration.closest_points_on_mesh"])
    return {k: float(v) for k, v in out.items()}


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _icp_iterations(spans: dict, icp: int, closest: int) -> float:
    """Mean ICP iterations per solve: each iteration makes one closest-point
    query and the final residual evaluation one more."""
    name, parent = spans["name"], spans["parent"]
    solves = np.flatnonzero(name == icp)
    if len(solves) == 0:
        return 0.0
    queries = parent[name == closest]
    per_solve = np.array([np.count_nonzero(queries == s) for s in solves])
    return float(np.mean(per_solve - 1))
