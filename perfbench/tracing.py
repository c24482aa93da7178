"""Span tracing of fimod's layers from outside the package.

`Tracer.install()` replaces the public entry points listed in `LAYERS` with
timing wrappers: methods are patched on their classes, and module-level
functions are patched under every name any loaded `fimod` module bound them
to at import (for example `fimod.modules.invariant_factors` as well as
`fimod.smith.invariant_factors`). Spans stay in memory as plain lists and
are written out once, after the last job. `uninstall()` puts every original
object back.

A span's self time is its duration minus the durations of its direct child
spans. Calls are single-threaded and properly nested, so self times
partition the traced wall time: summing them over every layer gives the
time inside the outermost spans.

`fimod.rings` and `fimod.injections` are deliberately not wrapped. Their
calls cost microseconds each and number in the millions, so their cost is
left in the self time of whichever wrapped caller invoked them.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# layer -> entry points, as "function" or "Class.method" in fimod.<layer>
LAYERS: dict[str, list[str]] = {
    "cli": ["main"],
    "presentations": [
        "FIPresentation.evaluate_slice", "FIPresentation.slice_module",
        "FIPresentation.induced_map", "FIPresentation.induced_matrix",
        "FIPresentation.slice_basis", "FIPresentation.free_rank_formula",
        "FIPresentation.content_hash", "FIPresentation.to_document",
        "FIPresentation.dumps", "FIPresentation.from_document",
        "FIPresentation.loads", "free_presentation", "evaluate_slice",
        "induced_map",
    ],
    "arnold": [
        "ArnoldModule.slice_module", "ArnoldModule.induced_matrix",
        "ArnoldModule.induced_map", "arnold_presentation", "arnold_slice",
        "arnold_induced_map",
    ],
    "coinvariants": [
        "invariant_basis", "ideal_matrix", "coinvariant_dim",
        "coinvariant_module", "coinvariant_dual_map", "coinvariant_table",
    ],
    "complexes": [
        "signed_shift_slice", "differential", "slice_complex",
        "SliceComplex.check_square_zero", "complex_homology",
        "homology_field_table", "homotopy_matrix", "shift_one_matrix",
        "verify_chain_homotopy", "poset_colimit", "check_inductive",
        "find_N", "ordered_shift_slice", "ordered_shift_structure_map",
        "ordered_shift_free_iso",
    ],
    "functors": [
        "shift_decomposition", "shift_presentation", "shift_identification",
        "q_summand_rank", "x_map", "x_map_decomposed", "pi_projection",
        "h0_slice", "generation_degree", "torsion_slice", "derivative",
        "saturate",
    ],
    "modules": [
        "PresentedModule.invariants", "PresentedModule.dim",
        "PresentedModule.is_zero_module", "PresentedModule.reducer",
        "PresentedModule.free_coordinates", "PresentedModule.contains",
        "ModuleMap.is_well_defined", "ModuleMap.is_surjective",
        "ModuleMap.compose", "is_isomorphism", "cokernel_invariants",
        "identity_map", "kernel_subspace_generators",
        "SubmoduleOfQuotient.invariants", "SubmoduleOfQuotient.same_span_as",
    ],
    "matrix": [
        "Matrix.rank", "Matrix.__matmul__", "Matrix.__add__",
        "Matrix.__neg__", "Matrix.__sub__", "Matrix.__eq__", "Matrix.scale",
        "Matrix.apply_to_column", "Matrix.column", "Matrix.columns",
        "Matrix.rows", "Matrix.transpose", "Matrix.to_dense_rows", "hstack",
        "vstack", "block_diagonal", "field_rref", "field_kernel_basis",
        "field_in_span", "FieldReducer.__init__", "FieldReducer.reduce",
        "FieldReducer.coordinates",
    ],
    "smith": [
        "invariant_factors", "smith_form", "integer_kernel_basis",
        "IntegerSolver.__init__", "IntegerSolver.solve", "integer_in_span",
        "lattice_canonical", "integer_inverse",
    ],
    "dimensions": [
        "dimension_table", "finite_difference", "fit_polynomial",
        "tail_equal", "DimensionTable.to_csv", "DimensionTable.from_csv",
    ],
}

# span record fields
LAYER, NAME, PARENT, START, END, ATTR = range(6)


class Tracer:
    """Wraps fimod's layers and records one span per wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self._restore: list[tuple[object, str, object]] = []
        self._slices: dict = {}

    # -- recording ---------------------------------------------------------
    def wrap(self, layer: str, name: str, fn, attr=None, rename=None):
        """A wrapper recording [layer, name, parent, start, end, attr].

        `rename(args, kwargs)` may pick another span name per call;
        `attr(args, kwargs, result)` stores one JSON value on the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            rec = [layer, rename(args, kwargs) if rename else name,
                   tracer.current, 0.0, 0.0, None]
            parent = tracer.current
            tracer.current = len(spans)
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer.current = parent
            if attr is not None:
                rec[ATTR] = attr(args, kwargs, result)
            return result

        return wrapper

    def _slice_attr(self, args, kwargs, result):
        # a hit is the same SliceModule object as an earlier return for the
        # same presentation and degree; keeping the object makes the identity
        # test exact even if the program's cache later evicts it
        p = args[0]
        n = args[1] if len(args) > 1 else kwargs["n"]
        key = (p.content_hash(), n)
        hit = self._slices.get(key) is result
        self._slices[key] = result
        return [hit, result.ambient]

    def _attrs(self):
        def matrix_arg(args, kwargs):
            return args[0] if args else kwargs["m"]

        return {
            "FIPresentation.evaluate_slice": (self._slice_attr, None),
            "poset_colimit": (lambda a, k, r: r.module.ambient, None),
            "Matrix.rank": (lambda a, k, r: [len(a[0].entries), a[0].nrows],
                            None),
            "smith_form": (
                lambda a, k, r: max(matrix_arg(a, k).nrows,
                                    matrix_arg(a, k).ncols),
                lambda a, k: "smith_form[transforms]"
                if (a[1] if len(a) > 1 else k.get("transforms", False))
                else "smith_form"),
            "integer_inverse": (lambda a, k, r: matrix_arg(a, k).nrows, None),
        }

    # -- patching ----------------------------------------------------------
    def install(self):
        """Wrap every entry point in LAYERS."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        attrs = self._attrs()
        layer_modules = {layer: importlib.import_module(f"fimod.{layer}")
                         for layer in LAYERS}
        fimod_modules = [m for name, m in sorted(sys.modules.items())
                         if m is not None and
                         (name == "fimod" or name.startswith("fimod."))]
        for layer, names in LAYERS.items():
            module = layer_modules[layer]
            for name in names:
                attr, rename = attrs.get(name, (None, None))
                if "." in name:
                    cls_name, meth = name.split(".")
                    self._patch_method(getattr(module, cls_name), meth,
                                       layer, name, attr, rename)
                else:
                    orig = getattr(module, name)
                    wrapped = self.wrap(layer, name, orig, attr, rename)
                    for m in fimod_modules:
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                self._set(m, key, wrapped, orig)

    def _patch_method(self, cls, meth, layer, name, attr, rename):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(layer, name, raw.__func__,
                                            attr, rename))
        else:
            wrapped = self.wrap(layer, name, raw, attr, rename)
        self._set(cls, meth, wrapped, raw)

    def _set(self, owner, key, new, old):
        self._restore.append((owner, key, old))
        setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._restore):
            setattr(owner, key, old)
        self._restore.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics from a span list

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


# metric group -> span names inside one layer
GROUPS: dict[str, tuple[str, ...]] = {
    "presentations.evaluate_slice": ("FIPresentation.evaluate_slice",
                                     "evaluate_slice"),
    "presentations.induced_map": ("FIPresentation.induced_map",
                                  "induced_map"),
    "arnold.slice_module": ("ArnoldModule.slice_module", "arnold_slice"),
    "arnold.induced_matrix": ("ArnoldModule.induced_matrix",
                              "ArnoldModule.induced_map",
                              "arnold_induced_map"),
    "coinvariants.ideal_matrix": ("ideal_matrix",),
    "coinvariants.invariant_basis": ("invariant_basis",),
    "complexes.differential": ("differential",),
    "complexes.poset_colimit": ("poset_colimit",),
    "complexes.homotopy": ("verify_chain_homotopy", "homotopy_matrix",
                           "shift_one_matrix"),
    "functors.h0_slice": ("h0_slice",),
    "functors.torsion_slice": ("torsion_slice",),
    "modules.invariants": ("PresentedModule.invariants",),
    "modules.free_coordinates": ("PresentedModule.free_coordinates",),
    "modules.is_isomorphism": ("is_isomorphism",),
    "matrix.rank": ("Matrix.rank",),
    "matrix.rref": ("field_rref",),
    "matrix.matmul": ("Matrix.__matmul__",),
    "smith.invariant_factors": ("invariant_factors",),
    "smith.transforms": ("smith_form[transforms]", "integer_kernel_basis",
                         "IntegerSolver.__init__", "IntegerSolver.solve",
                         "integer_inverse"),
}

# which span names count as one call of a group (entries, not nested helpers)
CALLS: dict[str, tuple[str, ...]] = {
    "presentations.evaluate_slice": ("FIPresentation.evaluate_slice",),
    "presentations.induced_map": ("FIPresentation.induced_map",),
    "complexes.differential": ("differential",),
    "modules.invariants": ("PresentedModule.invariants",),
    "matrix.rank": ("Matrix.rank",),
    "matrix.rref": ("field_rref",),
    "smith.invariant_factors": ("invariant_factors",),
    "smith.transforms": ("smith_form[transforms]", "integer_inverse"),
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times, group self times, call counts and sizes."""
    own = self_times(spans)
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for group in GROUPS:
        out[f"{group}.self_s"] = 0.0
    for group in CALLS:
        out[f"{group}.calls"] = 0
    group_of = {(g.split(".")[0], name): g
                for g, names in GROUPS.items() for name in names}
    calls_of = {(g.split(".")[0], name): g
                for g, names in CALLS.items() for name in names}
    hits = slices = 0
    ambient_max = colimit_max = rows_max = nnz_in = dim_max = 0
    for s, t in zip(spans, own):
        layer, name, attr = s[LAYER], s[NAME], s[ATTR]
        out[f"{layer}.self_s"] += t
        group = group_of.get((layer, name))
        if group is not None:
            out[f"{group}.self_s"] += t
        group = calls_of.get((layer, name))
        if group is not None:
            out[f"{group}.calls"] += 1
        if name == "FIPresentation.evaluate_slice":
            slices += 1
            hits += attr[0]
            ambient_max = max(ambient_max, attr[1])
        elif name == "poset_colimit":
            colimit_max = max(colimit_max, attr)
        elif name == "Matrix.rank":
            nnz_in += attr[0]
            rows_max = max(rows_max, attr[1])
        elif name in ("smith_form[transforms]", "integer_inverse"):
            dim_max = max(dim_max, attr)
    out["presentations.slice_cache_hit_ratio"] = hits / slices if slices else 0.0
    out["presentations.slice_ambient_max"] = ambient_max
    out["complexes.colimit_ambient_max"] = colimit_max
    out["matrix.rank.nnz_in"] = nnz_in
    out["matrix.rank.rows_max"] = rows_max
    out["smith.transforms.dim_max"] = dim_max
    return out
