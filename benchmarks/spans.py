"""Spans and counters recorded from outside the program.

`Tracer.install()` wraps public functions of the potts1d modules.  Modules
import these functions by name (`sweep` and `cli` import `thermo_point`,
`cli` imports `sweep_2d` and `three_route_report`, `oracle` imports
`partition_function`), so every module attribute bound to the original
function is rebound to the wrapper, and `uninstall()` puts the originals
back.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute).  The span name is the module that owns
# the function, which is the layer its time is charged to.
SPANS = (
    ("cli.parse_run_config", "potts1d.cli", "parse_run_config"),
    ("cli.run", "potts1d.cli", "run"),
    ("cli.table_to_csv", "potts1d.cli", "table_to_csv"),
    ("cli.table_to_json", "potts1d.cli", "table_to_json"),
    ("sweep.sweep_2d", "potts1d.sweep", "sweep_2d"),
    ("thermo.thermo_point", "potts1d.thermo", "thermo_point"),
    ("thermo.fd_verify", "potts1d.thermo", "fd_verify"),
    ("oracle.three_route_report", "potts1d.oracle", "three_route_report"),
    ("oracle.enumerate_partition", "potts1d.oracle", "enumerate_partition"),
    ("oracle.trace_power_partition", "potts1d.oracle", "trace_power_partition"),
    ("transfer.partition_function", "potts1d.transfer", "partition_function"),
)

# Work done by a call that returned, read from its actual arguments and
# added to the counter under the span name: enumerate_partition walks q**N
# configurations.
WORK = {
    "oracle.enumerate_partition": lambda params, state, N: params.q**N,
}

# Model value objects whose constructions are counted.
CONSTRUCTED = (("potts1d.model", "ModelParams"), ("potts1d.model", "ThermoState"))

ROOT = "request"


class _CountingArray(np.ndarray):
    """Dense transfer matrix that counts the matrix products made with it."""

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __matmul__(self, other):
        self.counter["matmul"] += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        self.counter["matmul"] += 1
        return super().__rmatmul__(other)


class _CountingMatrix:
    """TransferMatrix stand-in whose dense form counts products."""

    def __init__(self, matrix, counter: Counter):
        self._matrix = matrix
        self._counter = counter

    def __getattr__(self, name):
        return getattr(self._matrix, name)

    def to_dense(self):
        dense = self._matrix.to_dense().view(_CountingArray)
        dense.counter = self._counter
        return dense


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counter: Counter = Counter()
        self.request_id = -1
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span: str, fn):
        nid = self._name_id(span)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self
        work, counter = WORK.get(span), self.counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.request_id)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if work is not None:
                counter[span] += work(*args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, request_id: int, fn, *args):
        """Run fn(*args) as the root span of one request."""
        self.request_id = request_id
        try:
            return self._wrap(ROOT, fn)(*args)
        finally:
            self.request_id = -1

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "potts1d" and not mod_name.startswith("potts1d."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for span, mod_name, attr in SPANS:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind(original, self._wrap(span, original))

        oracle = sys.modules["potts1d.oracle"]
        build_matrix = oracle.build_matrix
        counter = self.counter

        def counting_build_matrix(*args, **kwargs):
            return _CountingMatrix(build_matrix(*args, **kwargs), counter)

        setattr(oracle, "build_matrix", counting_build_matrix)
        self._patched.append((oracle, "build_matrix", build_matrix))

        for mod_name, cls_name in CONSTRUCTED:
            cls = getattr(sys.modules[mod_name], cls_name)
            post_init = cls.__dict__["__post_init__"]

            def counting_post_init(obj, _post_init=post_init, _key=f"new {cls_name}"):
                counter[_key] += 1
                _post_init(obj)

            cls.__post_init__ = counting_post_init
            self._patched.append((cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (total) ns and self ns."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.int64)[:n] - np.frombuffer(self.start, dtype=np.int64)[:n]
        name = np.frombuffer(self.name, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        child_ns = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        # Spans of one thread nest, so direct children never overlap and
        # the time they cover is the sum of their durations.
        np.add.at(child_ns, parent[has_parent], dur[has_parent])
        self_ns = dur - child_ns
        out = {}
        for nid, span in enumerate(self.names):
            mask = name == nid
            out[span] = {
                "calls": int(np.count_nonzero(mask)),
                "busy_ns": int(dur[mask].sum()),
                "self_ns": int(self_ns[mask].sum()),
            }
        return out

    def write(self, path) -> None:
        """All spans as gzip CSV: id, name, parent id, request id, start, end (ns)."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("id,name,parent,request,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.request[i]},{self.start[i]},{self.end[i]}\n"
                )
