"""Spans and counts per layer, recorded from outside the program.

``Tracer.install`` wraps public functions and methods of every rhoforge
module.  A function is replaced wherever it is looked up: in its own
module and in every module that imported it by name (``cli`` imports
``bounding_chain``, ``delta`` imports ``smith_normal_form`` and so on),
because a wrapper set on the defining module alone sees none of those
calls.  Methods are replaced on their class.  ``uninstall`` puts every
original back.

A span is (name, start, end, parent index).  Spans are kept in memory
and written out at the end; a span's self time is its duration minus
the time its child spans cover.  Everything runs on one thread, so
spans nest and nothing waits on another layer.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from rhoforge import (
    bar,
    cli,
    delta,
    groups,
    hyperbolize,
    lens,
    polytopes,
    smith,
    towers,
)


def _terms(counts, args, out):
    counts["bar.boundary_terms"] += len(args[0].terms)


def _add_copied(counts, args, out):
    counts["bar.add_terms_copied"] += len(args[0].terms)


def _polytope_cells(counts, args, out):
    counts["polytopes.build_cells"] += len(args[0].cells)


def _endow_vertices(counts, args, out):
    counts["polytopes.endow_vertices"] += len(out.labels)


def _tower_cells(counts, args, out):
    counts["towers.tower_cells"] += len(out.result.cells)


def _cylinder(counts, args, out):
    counts["towers.cylinder_cells"] += len(args[0])
    counts["towers.cylinder_terms"] += len(out.chain.terms)


def _snf(counts, args, out):
    nnz = len(args[0])
    counts["smith.snf_nnz"] += nnz
    counts["smith.snf_max_nnz"] = max(counts["smith.snf_max_nnz"], nnz)
    counts["smith.snf_rank"] += out.rank


def _complex_cells(counts, args, out):
    counts["delta.build_cells"] += sum(len(level) for level in args[0].faces)


def _eig_dim(counts, args, out):
    counts["delta.eigvalsh_dim"] += len(args[0])


# (span name, owner, attribute, counter).  Owners that are classes get
# the wrapper as a class attribute; modules get it in every namespace
# that holds the original.  Names are "<layer>.<what>".
SPANS = [
    ("bar.boundary", bar.BarChain, "boundary", _terms),
    ("polytopes.assemble", polytopes, "assemble_polytopes", None),
    ("polytopes.build", polytopes.ColoredPolytope, "__init__", _polytope_cells),
    ("polytopes.endow", polytopes.ColoredPolytope, "endow", _endow_vertices),
    ("polytopes.check_coloring", polytopes.ColoredPolytope, "check_coloring", None),
    ("polytopes.boundary_pairs", polytopes.ColoredPolytope, "boundary_pairs", None),
    ("towers.bounding_chain", towers, "bounding_chain", None),
    ("towers.tower", towers, "tower", _tower_cells),
    ("towers.covering_step", towers, "_covering_step", None),
    ("towers.cylinder", towers, "cylinder", _cylinder),
    ("towers.verify", towers.BoundingResult, "verified", None),
    ("smith.snf", smith, "smith_normal_form", _snf),
    ("delta.build", delta.DeltaComplex, "__init__", _complex_cells),
    ("delta.boundary_matrix", delta.DeltaComplex, "boundary_matrix", None),
    ("delta.homology", delta.DeltaComplex, "homology", None),
    ("delta.laplacian", delta.DeltaComplex, "laplacian", None),
    ("delta.pdet", delta.DeltaComplex, "laplacian_pseudodet", None),
    ("delta.validate", delta.FreeAction, "validate", None),
    ("delta.quotient", delta, "quotient", None),
    ("delta.join", delta, "join", None),
    ("delta.prism", delta, "prism", None),
    ("delta.barycentric", delta, "barycentric", None),
    ("delta.eigvalsh", np.linalg, "eigvalsh", _eig_dim),
    ("hyperbolize.stage", hyperbolize, "hyperbolized_simplex", None),
    ("hyperbolize.sphere", hyperbolize, "hyperbolized_sphere", None),
    ("hyperbolize.fiber_product", hyperbolize, "fiber_product", None),
    ("lens.complex", lens, "lens_complex", None),
    ("lens.rho", lens, "rho_lower_bound_check", None),
    ("cli.main", cli, "main", None),
]

# Called far too often for a span each; only their calls are counted.
COUNTED = [
    ("groups.mul", groups.GroupElement, "__mul__", None),
    ("bar.add", bar.BarChain, "__add__", _add_copied),
]

# (metric, unit, source, key): "total" and "self" sum span durations of
# one span name, "layer" sums self time over a layer's spans, "calls"
# counts calls, "count" reads a counter and "max" a counter that is a
# maximum rather than a sum.  Everything but "max" is given per pass.
METRICS = [
    ("groups.mul_calls", "count", "calls", "groups.mul"),
    ("bar.boundary_s", "s", "total", "bar.boundary"),
    ("bar.boundary_calls", "count", "calls", "bar.boundary"),
    ("bar.boundary_terms", "count", "count", "bar.boundary_terms"),
    ("bar.add_calls", "count", "calls", "bar.add"),
    ("bar.add_terms_copied", "count", "count", "bar.add_terms_copied"),
    ("bar.self_s", "s", "layer", "bar"),
    ("polytopes.assemble_s", "s", "total", "polytopes.assemble"),
    ("polytopes.build_s", "s", "total", "polytopes.build"),
    ("polytopes.build_cells", "count", "count", "polytopes.build_cells"),
    ("polytopes.endow_s", "s", "total", "polytopes.endow"),
    ("polytopes.endow_calls", "count", "calls", "polytopes.endow"),
    ("polytopes.endow_vertices", "count", "count", "polytopes.endow_vertices"),
    ("polytopes.self_s", "s", "layer", "polytopes"),
    ("towers.bounding_chain_s", "s", "self", "towers.bounding_chain"),
    ("towers.tower_s", "s", "total", "towers.tower"),
    ("towers.tower_cells", "count", "count", "towers.tower_cells"),
    ("towers.covering_steps", "count", "calls", "towers.covering_step"),
    ("towers.cylinder_s", "s", "total", "towers.cylinder"),
    ("towers.cylinder_cells", "count", "count", "towers.cylinder_cells"),
    ("towers.cylinder_terms", "count", "count", "towers.cylinder_terms"),
    ("towers.verify_s", "s", "total", "towers.verify"),
    ("towers.verify_calls", "count", "calls", "towers.verify"),
    ("towers.self_s", "s", "layer", "towers"),
    ("smith.snf_s", "s", "total", "smith.snf"),
    ("smith.snf_calls", "count", "calls", "smith.snf"),
    ("smith.snf_nnz", "count", "count", "smith.snf_nnz"),
    ("smith.snf_max_nnz", "count", "max", "smith.snf_max_nnz"),
    ("smith.snf_rank", "count", "count", "smith.snf_rank"),
    ("delta.build_s", "s", "total", "delta.build"),
    ("delta.build_cells", "count", "count", "delta.build_cells"),
    ("delta.boundary_matrix_s", "s", "total", "delta.boundary_matrix"),
    ("delta.homology_s", "s", "self", "delta.homology"),
    ("delta.validate_s", "s", "total", "delta.validate"),
    ("delta.quotient_s", "s", "total", "delta.quotient"),
    ("delta.join_s", "s", "total", "delta.join"),
    ("delta.pdet_s", "s", "total", "delta.pdet"),
    ("delta.eigvalsh_s", "s", "total", "delta.eigvalsh"),
    ("delta.eigvalsh_dim", "count", "count", "delta.eigvalsh_dim"),
    ("delta.pdet_errors", "count", "errors", "delta.pdet"),
    ("delta.self_s", "s", "layer", "delta"),
    ("hyperbolize.stage_s", "s", "total", "hyperbolize.stage"),
    ("hyperbolize.sphere_s", "s", "total", "hyperbolize.sphere"),
    ("hyperbolize.fiber_product_s", "s", "total", "hyperbolize.fiber_product"),
    ("hyperbolize.self_s", "s", "layer", "hyperbolize"),
    ("lens.complex_s", "s", "self", "lens.complex"),
    ("lens.rho_s", "s", "total", "lens.rho"),
    ("lens.rho_calls", "count", "calls", "lens.rho"),
    ("lens.self_s", "s", "layer", "lens"),
    ("cli.self_s", "s", "self", "cli.main"),
    ("cli.report_bytes", "count", "count", "cli.report_bytes"),
    ("cli.op_errors", "count", "errors", "cli.main"),
]


def _namespaces():
    return [
        m
        for name, m in sys.modules.items()
        if name == "rhoforge" or name.startswith("rhoforge.")
    ]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls, errors = name + ".calls", name + ".errors"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise
            finally:
                spans[idx] = (name, t0, perf_counter(), parent)
                stack.pop()
                counts[calls] += 1
            if counter is not None:
                counter(counts, args, out)
            return out

        return wrapper

    def _counted(self, name, fn, counter):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args):
            out = fn(*args)
            counts[calls] += 1
            if counter is not None:
                counter(counts, args, out)
            return out

        return wrapper

    def _replace(self, owner, attr, make):
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            if isinstance(orig, property):
                new = property(make(orig.fget))
            else:
                new = make(orig)
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, new)
            return
        orig = getattr(owner, attr)
        new = make(orig)
        for ns in [owner] + _namespaces():
            for key, value in list(vars(ns).items()):
                if value is orig:
                    self._undo.append((ns, key, orig))
                    setattr(ns, key, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, owner, attr, counter in SPANS:
            self._replace(
                owner, attr, lambda fn, n=name, c=counter: self._span(n, fn, c)
            )
        for name, owner, attr, counter in COUNTED:
            self._replace(
                owner, attr, lambda fn, n=name, c=counter: self._counted(n, fn, c)
            )

    def uninstall(self) -> None:
        for ns, key, orig in reversed(self._undo):
            setattr(ns, key, orig)
        self._undo.clear()

    # -- aggregation --------------------------------------------------

    def durations(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        own: Counter = Counter()
        for (name, t0, t1, _), covered in zip(self.spans, child):
            total[name] += t1 - t0
            own[name] += t1 - t0 - covered
        return total, own

    def metrics(self, passes: int, pass_seconds: float) -> dict[str, dict]:
        """Per-pass layer metrics over ``passes`` traced passes.

        ``pass_seconds`` is the summed wall time of those passes; the
        share of it covered by the layer spans under ``cli.main`` is
        reported as ``trace.coverage_pct``.
        """
        total, own = self.durations()
        out = {}
        for metric, unit, source, key in METRICS:
            if source == "total":
                value = total[key]
            elif source == "self":
                value = own[key]
            elif source == "layer":
                value = sum(v for k, v in own.items() if k.startswith(key + "."))
            elif source == "calls":
                value = self.counts[key + ".calls"]
            elif source == "errors":
                value = self.counts[key + ".errors"]
            else:
                value = self.counts[key]
            if source != "max":
                value = value / passes
            out[metric] = {"value": value, "unit": unit}
        under_main = total["cli.main"] - own["cli.main"]
        out["trace.coverage_pct"] = {
            "value": 100.0 * under_main / pass_seconds,
            "unit": "%",
        }
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)
