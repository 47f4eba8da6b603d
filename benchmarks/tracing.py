"""Spans around the public functions of each qhal module, from outside the package.

``Tracer.install`` replaces every binding of a public function that any
``qhal`` module holds (``analysis`` imports ``op_op_conv`` by name, so that
binding is wrapped too) with a wrapper that, while ``active`` is set, records
one span per call: name, start, end, parent span, request id and whether it
raised.  Spans stay
in memory; ``write_spans`` writes them out when the run ends.  Self time is a
span's duration minus the time covered by its child spans.

A function that calls itself (``cli.render_json``) gets one span for the
outermost call only.  ``numpy.linalg.eigvalsh`` is traced as
``analysis.eigvalsh`` when it is called from ``qhal.analysis``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import sys
from time import perf_counter

LAYERS = (
    "phase_space",
    "operators",
    "windows",
    "transforms",
    "convolutions",
    "analysis",
    "io",
    "cli",
)

# spans: (id, name, start, end, child_time, parent_id, request, failed)
NAME, START, END, CHILD, PARENT, REQUEST, FAILED = 1, 2, 3, 4, 5, 6, 7

LATTICE_SETUP = (
    "phase_space.make_separable_lattice",
    "phase_space.make_general_lattice",
    "phase_space.adjoint_lattice",
    "phase_space.quotient_reps",
)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if (
            callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self.active = False
        self.bytes_written = 0
        self.bytes_read = 0
        self._stack = []  # [span id, name, child time]
        self._next_id = 0
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not tracer.active or (stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, name, 0.0]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                tracer.spans.append(
                    (span_id, name, start, end, frame[2], parent, tracer.request, failed)
                )
            if name == "io.save_text":
                tracer.bytes_written += len(args[1])
            elif name == "io.load_text":
                tracer.bytes_read += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args):
        """Call fn(*args) as one span named name, e.g. a whole request."""
        return self._wrap(fn, name)(*args)

    # -- installation --------------------------------------------------------

    def install(self):
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qhal.{layer}")
            for name, obj in _public_functions(module):
                originals[id(obj)] = (obj, f"{layer}.{name}")
        wrappers = {key: self._wrap(obj, name) for key, (obj, name) in originals.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "qhal" and not modname.startswith("qhal."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, obj))

        import numpy.linalg

        eig = numpy.linalg.eigvalsh
        traced_eig = self._wrap(eig, "analysis.eigvalsh")

        def eigvalsh(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "qhal.analysis":
                return traced_eig(*args, **kwargs)
            return eig(*args, **kwargs)

        numpy.linalg.eigvalsh = eigvalsh
        self._undo.append((numpy.linalg, "eigvalsh", eig))

    def uninstall(self):
        self.active = False
        for module, attr, obj in reversed(self._undo):
            setattr(module, attr, obj)
        self._undo.clear()



# -- output and aggregation ----------------------------------------------------


def write_spans(path, spans):
    """One JSON array per line: id, name, start, end, child time, parent,
    request, failed."""
    with gzip.open(path, "wt", encoding="ascii") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def by_name(spans):
    """name -> {calls, self_s, total_s, failures, durations}"""
    table = {}
    for span in spans:
        row = table.setdefault(
            span[NAME],
            {"calls": 0, "self_s": 0.0, "total_s": 0.0, "failures": 0, "durations": []},
        )
        duration = span[END] - span[START]
        row["calls"] += 1
        row["self_s"] += duration - span[CHILD]
        row["total_s"] += duration
        row["failures"] += span[FAILED]
        row["durations"].append(duration)
    return table


def lattice_setup_s(spans):
    """Cold lattice set-up in one request: the first call of each constructor.

    Only meaningful where the lattice caches start empty (each CLI child, or
    after ``cache_clear``); later calls are cache hits.
    """
    first = {}
    for span in sorted(spans, key=lambda s: s[START]):
        if span[NAME] in LATTICE_SETUP and span[NAME] not in first:
            first[span[NAME]] = span[END] - span[START]
    return sum(first.values())


def median_or_zero(values):
    return statistics.median(values) if values else 0.0
