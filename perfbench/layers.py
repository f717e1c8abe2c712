"""Per-layer tracing from outside the engine.

``Tracer.install`` replaces each traced engine function with a wrapper
wherever the function is bound: in its own module, in every ``oridial``
module that imported it by name, and on its class for methods.
``Tracer.uninstall`` puts the originals back.  Each wrapper opens a span;
a layer's time is self time, the span's duration minus the spans nested in
it, so a function and the layers it calls are never counted twice.  The
bookkeeping of a wrapper (counting nonzeros, hashing matrices) happens
outside its span and is charged to no layer.
"""

from __future__ import annotations

import io
import sys
import time
from collections import defaultdict

from oridial import cli, cohomology, deformations, dialgebra, extensions, linalg, oriented, trees

ELIM = "linalg.elim"
ASSEMBLY = {"delta_entries", "act_entries", "vertical_entries", "horizontal_entries",
            "total_entries"}

# (owner, attribute, layer)
TARGETS = [
    (linalg, "rank", ELIM),
    (linalg, "rref", ELIM),
    (linalg, "nullspace", ELIM),
    (linalg, "in_image", ELIM),
    (linalg, "column_space_complement", ELIM),
    (linalg.Matrix, "mul", "linalg.matmul"),
    (cohomology, "delta_entries", "cohomology.delta"),
    (cohomology, "act_entries", "cohomology.action"),
    (cohomology, "vertical_entries", "cohomology.bicomplex"),
    (cohomology, "horizontal_entries", "cohomology.bicomplex"),
    (cohomology, "total_entries", "cohomology.bicomplex"),
    (cohomology.SparseMap, "to_matrix", "cohomology.densify"),
    (cohomology.SparseMap, "mul", "cohomology.square_check"),
    (cohomology, "dialgebra_cohomology", "cohomology.quotient"),
    (cohomology, "equivariant_cohomology", "cohomology.quotient"),
    (cohomology, "is_degree1_cocycle", "cohomology.degree1"),
    (cohomology, "degree1_system", "cohomology.degree1"),
    (cohomology, "degree1_coboundary", "cohomology.degree1"),
    (dialgebra, "check_axioms", "dialgebra.check"),
    (oriented, "check_oriented_dialgebra", "oriented.check"),
    (extensions, "build_extension", "extensions.build"),
    (extensions, "check_extension", "extensions.check"),
    (extensions, "extract_cocycle", "extensions.extract"),
    (deformations, "transport_constant", "deformations.transport"),
    (deformations, "check_deformation", "deformations.check"),
    (deformations, "check_equivalence", "deformations.equivalence"),
    (deformations, "infinitesimals_cohomologous", "deformations.equivalence"),
    (trees, "enumerate_trees", "trees.enumerate"),
    (trees, "tree_index", "trees.enumerate"),
    (cli, "main", "cli.self"),
]
# layers whose outermost calls are counted as ``<layer>_calls``
COUNTED = (ELIM, "linalg.matmul", "cohomology.degree1")

class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.stack = []            # open spans: [layer, child seconds, attribute]
        self.seen = set()          # fingerprints of eliminated matrices
        self.repeat_s = 0.0        # elimination self time on repeated matrices
        self.bytes_out = 0
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, layer: str, attr: str):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            outer = not stack or stack[-1][0] != layer
            outer_assembly = attr in ASSEMBLY and not any(sp[2] in ASSEMBLY for sp in stack)
            before = time.perf_counter()
            token = tracer._before(attr, args)
            span = [layer, 0.0, attr]
            stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                own = end - start - span[1]
                tracer.self_s[layer] += own
                tracer._after(attr, token, own)
            if outer:
                tracer.calls[layer] += 1
            if outer_assembly:
                tracer.counts["assembly_nnz"] += len(result.entries)
            if stack:
                stack[-1][1] += time.perf_counter() - before
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, attr, args):
        """Counts taken on the arguments, and a token for ``_after``."""
        if attr == "to_matrix":
            sm = args[0]
            self.counts["densify_cells"] += sm.rows * sm.cols
        elif attr in ("rank", "rref"):
            m = args[0]
            self.counts["elim_cells"] += m.rows * m.cols
            self.counts["elim_nnz"] += sum(1 for x in m.entries if x)
            self.counts["eliminations"] += 1
            return (m.rows, m.cols, hash(tuple(m.entries)))
        elif attr == "main" and isinstance(sys.stdout, io.StringIO):
            return sys.stdout.tell()
        return None

    def _after(self, attr, token, own: float) -> None:
        if token is None:
            return
        if attr == "main":
            self.bytes_out += len(sys.stdout.getvalue()[token:].encode())
            return
        if token in self.seen:
            self.repeat_s += own
        self.seen.add(token)

    # -- install -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "oridial" or name.startswith("oridial."))]
        for owner, attr, layer in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, attr)
            if isinstance(owner, type):
                self._replace(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, original, wrapper)

    def _replace(self, owner, name, original, wrapper) -> None:
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """``<layer>_s`` for every traced layer, ``<layer>_calls`` and the counters."""
        values = {f"{layer}_s": self.self_s[layer] for _, _, layer in TARGETS}
        values.update({f"{layer}_calls": self.calls[layer] for layer in COUNTED})
        elims, elim_s = self.counts["eliminations"], self.self_s[ELIM]
        values.update({
            "linalg.elim_cells": self.counts["elim_cells"],
            "linalg.elim_nnz": self.counts["elim_nnz"],
            "linalg.elim_distinct_ratio": len(self.seen) / elims if elims else 1.0,
            "linalg.elim_repeat_share": self.repeat_s / elim_s if elim_s else 0.0,
            "cohomology.assembly_nnz": self.counts["assembly_nnz"],
            "cohomology.densify_cells": self.counts["densify_cells"],
            "cli.bytes_out": self.bytes_out,
        })
        return values
