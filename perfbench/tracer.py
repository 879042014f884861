"""Per-layer tracing from outside the program.

The tracer wraps public functions of the program's modules in timing
shims. ``boolsynth`` modules import each other with ``from .x import y``,
so a function is replaced under every module attribute that refers to it,
not only in the module that defines it. ``SatSolver.solve`` and
``SatSolver.add_clause`` are patched on the class. Spans stay in memory as
``[name, start, end, parent, op, add_clause seconds]`` records; layer times
and self times are computed from them after a pass. ``add_clause`` runs
hundreds of thousands of times a pass, so it gets no span of its own: its
shim only sums calls and time, and each span records how much of that time
fell inside it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Optional

# (module, attribute, span name): each attribute is looked up in the
# defining module and replaced everywhere the same object is bound.
_FUNCTIONS = (
    ("boolsynth.solving", "check_ssp", "solving.check"),
    ("boolsynth.solving", "check_essp", "solving.check"),
    ("boolsynth.solving", "check_feasibility", "solving.check"),
    ("boolsynth.solving", "solve_atom", "solving.atom"),
    ("boolsynth.solving", "assign_witnesses", "solving.assign"),
    ("boolsynth.regions", "validate_region", "regions.validate"),
    ("boolsynth.nets", "synthesize", "nets.synthesize"),
    ("boolsynth.nets", "reachability_graph", "nets.rg"),
    ("boolsynth.nets", "is_isomorphic", "nets.iso"),
    ("boolsynth.reduction", "build_instance", "reduction.build"),
    ("boolsynth.reduction", "verify_inhibiting_region", "reduction.verify"),
    ("boolsynth.cli", "main", "cli.main"),
) + tuple(
    ("boolsynth.fileformats", name, "fileformats.parse")
    for name in (
        "parse_subject", "parse_ts", "parse_union", "parse_net",
        "parse_witnesses", "parse_cnf", "parse_instance",
    )
) + tuple(
    ("boolsynth.fileformats", name, "fileformats.format")
    for name in (
        "format_ts", "format_union", "format_net", "format_witnesses",
        "format_cnf", "format_instance",
    )
)


#: Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "sat.solve_s": "s",
    "sat.solve_calls": "count",
    "sat.sat": "count",
    "sat.unsat": "count",
    "sat.unknown": "count",
    "sat.conflicts": "count",
    "sat.conflicts_per_s": "1/s",
    "sat.add_clause_calls": "count",
    "sat.add_clause_s": "s",
    "solving.check_s": "s",
    "solving.atom_s": "s",
    "solving.assign_s": "s",
    "solving.self_s": "s",
    "solving.engine_exhaustive": "count",
    "solving.engine_sat": "count",
    "solving.regions_pooled": "count",
    "solving.atoms_per_region": "ratio",
    "regions.validate_calls": "count",
    "regions.validate_s": "s",
    "nets.synthesize_s": "s",
    "nets.rg_s": "s",
    "nets.rg_markings": "count",
    "nets.iso_s": "s",
    "fileformats.parse_s": "s",
    "fileformats.format_s": "s",
    "fileformats.bytes": "count",
    "reduction.build_s": "s",
    "reduction.verify_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs timing shims, records spans and layer counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.add_clause = [0, 0.0]  # calls, seconds
        self.unvalidated: list[tuple[int, str]] = []  # (op index, message)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counters of earlier passes."""
        self.spans.clear()
        self._stack.clear()
        self.unvalidated.clear()
        self.add_clause[:] = [0, 0.0]
        self.counts.clear()
        self.counts.update(
            dict.fromkeys(
                (
                    "sat.sat", "sat.unsat", "sat.unknown", "sat.conflicts",
                    "solving.engine_exhaustive", "solving.engine_sat",
                    "solving.regions_pooled", "solving.requirements",
                    "nets.rg_markings", "fileformats.bytes",
                ),
                0,
            )
        )

    # ------------------------------------------------------------ patching

    def _wrap(self, fn: Callable, name: str, after: Optional[Callable]) -> Callable:
        """Shim recording one span per call. ``after(args, result, nested,
        before, index)`` updates counters once span ``index`` is closed;
        ``nested`` is true inside a span of the same name, ``before`` is
        the value of ``args[0].conflicts`` at entry when ``args[0]`` is a
        solver."""
        spans = self.spans
        stack = self._stack
        counted = self.add_clause
        clock = time.perf_counter
        wants_conflicts = name == "sat.solve"

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = stack[-1] if stack else -1
            before = args[0].conflicts if wants_conflicts else 0
            index = len(spans)
            record = [name, clock(), 0.0, parent, self.op, counted[1]]
            stack.append(index)
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                record[5] = counted[1] - record[5]
                stack.pop()
            if after is not None:
                nested = parent >= 0 and spans[parent][0] == name
                after(args, result, nested, before, index)
            return result

        return shim

    def _wrap_add_clause(self, fn: Callable) -> Callable:
        """Shim for ``add_clause``, which runs too often for a span per
        call: it only adds the call and its time to ``self.add_clause``.
        Each span keeps the part of that time spent inside it."""
        totals = self.add_clause
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(solver, lits):
            begin = clock()
            fn(solver, lits)
            totals[1] += clock() - begin
            totals[0] += 1

        return shim

    def install(self) -> None:
        """Patch every traced function under all names bound to it."""
        import boolsynth.sat

        solver = boolsynth.sat.SatSolver
        for attr, shim in (
            ("solve", lambda fn: self._wrap(fn, "sat.solve", self._hook("solve"))),
            ("add_clause", self._wrap_add_clause),
        ):
            original = solver.__dict__[attr]
            self._patches.append((solver, attr, original))
            setattr(solver, attr, shim(original))
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "boolsynth" or key.startswith("boolsynth.")
        ]
        for module_name, attr, name in _FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            shim = self._wrap(original, name, self._hook(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, shim)

    def uninstall(self) -> None:
        """Put every patched name back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _require_validated(self, index: int, regions: int, what: str) -> None:
        """Every region an engine decodes is re-validated before it
        leaves: span ``index`` must contain at least ``regions``
        ``validate_region`` calls."""
        calls = sum(1 for span in self.spans[index + 1 :] if span[0] == "regions.validate")
        if calls < regions:
            self.unvalidated.append(
                (self.op, f"{what} returned {regions} regions after {calls} validate_region calls")
            )

    def _hook(self, attr: str) -> Optional[Callable]:
        counts = self.counts
        if attr == "solve":

            def after(args, verdict, nested, before, index) -> None:
                counts["sat.conflicts"] += args[0].conflicts - before
                if verdict is None:
                    counts["sat.unknown"] += 1
                else:
                    counts["sat.sat" if verdict else "sat.unsat"] += 1

            return after
        if attr.startswith("check_"):
            from workloads import requirements

            want_ssp, want_essp = attr != "check_essp", attr != "check_ssp"

            def after(args, result, nested, before, index) -> None:
                counts["solving.engine_" + result.engine] += 1
                counts["solving.regions_pooled"] += len(result.regions)
                counts["solving.requirements"] += len(requirements(args[0], want_ssp, want_essp))
                self._require_validated(index, len(result.regions), attr)

            return after
        if attr == "solve_atom":

            def after(args, result, nested, before, index) -> None:
                self._require_validated(index, int(result is not None), attr)

            return after
        if attr == "reachability_graph":

            def after(args, result, nested, before, index) -> None:
                counts["nets.rg_markings"] += len(result.states)

            return after
        if attr.startswith(("parse_", "format_")):
            text_of = (lambda args, result: args[0]) if attr.startswith("parse_") else (
                lambda args, result: result
            )

            def after(args, result, nested, before, index) -> None:
                if not nested:  # the outer call already counts these bytes
                    counts["fileformats.bytes"] += len(text_of(args, result))

            return after
        return None

    # ------------------------------------------------------------ metrics

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals for the spans recorded since the last reset.

        A layer's time counts only its outermost spans, so a format
        function calling another is not counted twice. Self time is a
        span's duration minus the durations of its direct children and of
        the ``add_clause`` calls directly under it.
        """
        spans = self.spans
        # add_clause time under a span, less that under its children, is
        # add_clause time directly under it.
        child_time = [counted for *_, counted in spans]
        for name, start, end, parent, _, counted in spans:
            if parent >= 0:
                child_time[parent] += end - start - counted
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        self_time: dict[str, float] = {}
        for index, (name, start, end, parent, _, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".")[0]
            self_time[layer] = self_time.get(layer, 0.0) + (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total[name] = total.get(name, 0.0) + end - start
        c = self.counts
        solve_s = total.get("sat.solve", 0.0)
        pooled = c["solving.regions_pooled"]
        return {
            "sat.solve_s": solve_s,
            "sat.solve_calls": calls.get("sat.solve", 0),
            "sat.sat": c["sat.sat"],
            "sat.unsat": c["sat.unsat"],
            "sat.unknown": c["sat.unknown"],
            "sat.conflicts": c["sat.conflicts"],
            "sat.conflicts_per_s": c["sat.conflicts"] / solve_s if solve_s else 0.0,
            "sat.add_clause_calls": self.add_clause[0],
            "sat.add_clause_s": self.add_clause[1],
            "solving.check_s": total.get("solving.check", 0.0),
            "solving.atom_s": total.get("solving.atom", 0.0),
            "solving.assign_s": total.get("solving.assign", 0.0),
            "solving.self_s": self_time.get("solving", 0.0),
            "solving.engine_exhaustive": c["solving.engine_exhaustive"],
            "solving.engine_sat": c["solving.engine_sat"],
            "solving.regions_pooled": pooled,
            "solving.atoms_per_region": c["solving.requirements"] / pooled if pooled else 0.0,
            "regions.validate_calls": calls.get("regions.validate", 0),
            "regions.validate_s": total.get("regions.validate", 0.0),
            "nets.synthesize_s": total.get("nets.synthesize", 0.0),
            "nets.rg_s": total.get("nets.rg", 0.0),
            "nets.rg_markings": c["nets.rg_markings"],
            "nets.iso_s": total.get("nets.iso", 0.0),
            "fileformats.parse_s": total.get("fileformats.parse", 0.0),
            "fileformats.format_s": total.get("fileformats.format", 0.0),
            "fileformats.bytes": c["fileformats.bytes"],
            "reduction.build_s": total.get("reduction.build", 0.0),
            "reduction.verify_s": total.get("reduction.verify", 0.0),
            "cli.self_s": self_time.get("cli", 0.0),
        }

    def write_spans(self, path) -> None:
        """One JSON line per span of the last traced pass."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
