"""Per-layer counters for a traced pass, from wrappers the benchmark installs.

Nothing inside vertexkernel changes: ``Tracer.install`` replaces chosen
functions and methods with wrappers and ``Tracer.uninstall`` puts every
original back.  A *span* wrapper counts calls and times them; a *count*
wrapper (the memoised private methods and a few hooks) only counts.

Spans nest.  A span's self time is its duration minus the time of the spans
it encloses, so time in an unwrapped helper is charged to the nearest
enclosing span.  Per function the tracer keeps calls, inclusive time (the
outermost call of a recursion only) and self time; no span is stored, so
millions of calls cost memory for counters only.  Memo sizes are read from
each VacuumModule / TensorPhiAlgebra built during a CLI call, after that
call (``harvest``).  A target or memo attribute the program no longer has is
listed in ``missing``; the run then reports itself incorrect, because counters
that silently read 0 would be wrong.
"""

import importlib
import sys
import time

# layer -> (module, qualified name) of every function timed as a span.
# Module names are under vertexkernel except "fractions" (the stdlib).
SPANS = {
    "vla": [("vla", f"Presentation.{m}")
            for m in ("validate", "nth_product", "skew_expansion", "apply_D")],
    "current": [("current", f) for f in ("bracket", "bracket_combo", "mode_normalize",
                                         "check_lie_axioms")],
    "lincomb": [("lincomb", f"LinComb.{m}")
                for m in ("add_into", "__add__", "__sub__", "__neg__", "__mul__",
                          "__rmul__", "__eq__", "map_keys", "bind", "tensor",
                          "sorted_items", "format")],
    "fractions": [("fractions", f"Fraction.{m}")
                  for m in ("__new__", "__add__", "__radd__", "__sub__", "__rsub__",
                            "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                            "__neg__", "__abs__", "__bool__", "__eq__", "__lt__",
                            "__gt__", "__le__", "__ge__")],
    "enveloping": [("enveloping", f"VacuumModule.{m}")
                   for m in ("state_mode", "mode_apply", "combo_apply", "D", "delta",
                             "embed", "basis_words", "graded_dimension",
                             "check_vacuum_creation", "check_d_translation",
                             "check_skew_symmetry", "check_commutator", "check_jacobi",
                             "format_state")]
                  + [("enveloping", f) for f in ("skew_defect_on", "commutator_defect_on",
                                                 "jacobi_defect_on")],
    "constructions": [("constructions", f)
                      for f in ("check_phi_central", "eminus_apply",
                                "eminus_conjugation_defect", "check_eminus_conjugation",
                                "check_tensor_phi_axioms", "check_group_like_semigroup",
                                "tensor_phi_primitives", "check_component_structure",
                                "borcherds_mode", "check_bl_bialgebra",
                                "check_bl_equals_tensor_phi", "extend_universal_morphism",
                                "induced_vertex_morphism", "tensor_phi_group_like_scan")]
                     + [("constructions", f"TensorPhiAlgebra.{m}")
                        for m in ("state_mode", "D", "delta", "embed", "basis_keys")]
                     + [("constructions", f"BL.{m}")
                        for m in ("product", "D", "state_mode", "delta", "monomial",
                                  "bar_state", "basis_keys")],
    "coalgebra": [("coalgebra", f)
                  for f in ("delta_state", "primitive_defect", "group_like_defect",
                            "primitive_subspace", "group_like_scan",
                            "coassociativity_defect", "counit_law_defects",
                            "cocommutativity_defect", "d_coderivation_defect",
                            "check_coalgebra", "delta_morphism_defect",
                            "counit_mode_defect", "check_delta_morphism", "dp_product",
                            "dp_delta", "psi_g", "check_psi_coalgebra")]
                 + [("coalgebra", f"DividedPowerBialgebra.{m}")
                    for m in ("product", "delta", "check_bialgebra")]
                 + [("coalgebra", f"UniversalEnveloping.{m}")
                    for m in ("product", "delta", "tensor_product", "psi", "check_bialgebra")],
    "linalg": [("linalg", f) for f in ("rank_of", "kernel_coefficients")],
    "serialize": [("serialize", f)
                  for f in ("parse_state", "parse_element", "state_to_json",
                            "tensor_to_json", "element_to_json", "diff_state_to_json",
                            "read_json_file", "load_presentation", "load_construction")],
}

# memo name -> (module, memoised method, memo attribute on the model object)
MEMOS = {
    "enveloping.smode": ("enveloping", "VacuumModule._state_mode_word", "_smode"),
    "enveloping.apply": ("enveloping", "VacuumModule._apply_word", "_apply"),
    "enveloping.straighten": ("enveloping", "VacuumModule.straighten", "_straight"),
    "enveloping.bracket": ("enveloping", "VacuumModule.bracket", "_bracket"),
    "enveloping.dword": ("enveloping", "VacuumModule._d_word", "_dword"),
    "enveloping.delta": ("enveloping", "VacuumModule.delta_word", "_delta"),
    "constructions.key_mode": ("constructions", "TensorPhiAlgebra._key_mode", "_kmode"),
}
MODEL_CLASSES = (("enveloping", "VacuumModule.__init__"),
                 ("constructions", "TensorPhiAlgebra.__init__"))

# suite -> the public checkers behind it, as called from the CLI
SUITES = {
    "validate": [("vla", "Presentation.validate")],
    "skew": [("enveloping", "VacuumModule.check_skew_symmetry")],
    "commutator": [("enveloping", "VacuumModule.check_commutator")],
    "jacobi": [("enveloping", "VacuumModule.check_jacobi")],
    "coalgebra": [("coalgebra", "check_coalgebra"), ("coalgebra", "check_delta_morphism")],
    "morphism": [("constructions", "extend_universal_morphism"),
                 ("constructions", "induced_vertex_morphism")],
    "tensor-phi": [("constructions", f) for f in ("check_phi_central",
                                                  "check_tensor_phi_axioms",
                                                  "check_group_like_semigroup",
                                                  "check_component_structure")],
    "bl": [("constructions", "check_bl_bialgebra"),
           ("constructions", "check_bl_equals_tensor_phi")],
}

DELTA_METHODS = [("enveloping", "VacuumModule.delta"), ("constructions", "TensorPhiAlgebra.delta"),
                 ("constructions", "BL.delta"), ("coalgebra", "DividedPowerBialgebra.delta"),
                 ("coalgebra", "UniversalEnveloping.delta")]
TO_JSON = [("serialize", f) for f in ("state_to_json", "tensor_to_json", "element_to_json",
                                      "diff_state_to_json")]

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"cli.suite.{s}_s", "s", "lower") for s in SUITES]
    + [("vla.validate_s", "s", "lower"), ("vla.nth_product.calls", "count", "lower"),
       ("current.bracket.calls", "count", "lower"), ("current.bracket.self_s", "s", "lower"),
       ("lincomb.add_into.calls", "count", "lower"), ("lincomb.self_s", "s", "lower"),
       ("lincomb.fraction_self_s", "s", "lower")]
    + [m for memo in ("smode", "apply", "straighten", "bracket", "dword", "delta")
       for m in ((f"enveloping.{memo}.calls", "count", "lower"),
                 (f"enveloping.{memo}.entries", "count", "lower"),
                 (f"enveloping.{memo}.hit_ratio", "ratio", "higher"))]
    + [("enveloping.state_mode.calls", "count", "lower"), ("enveloping.self_s", "s", "lower"),
       ("constructions.key_mode.calls", "count", "lower"),
       ("constructions.key_mode.entries", "count", "lower"),
       ("constructions.key_mode.hit_ratio", "ratio", "higher"),
       ("constructions.eminus_apply.calls", "count", "lower"),
       ("constructions.eminus_apply.self_s", "s", "lower"),
       ("constructions.self_s", "s", "lower"),
       ("coalgebra.delta.calls", "count", "lower"), ("coalgebra.self_s", "s", "lower"),
       ("coalgebra.primitive_subspace.calls", "count", "lower"),
       ("coalgebra.primitive_subspace_s", "s", "lower"),
       ("linalg.kernel_coefficients.calls", "count", "lower"),
       ("linalg.cells", "count", "lower"), ("linalg.self_s", "s", "lower"),
       ("serialize.parse_state_s", "s", "lower"), ("serialize.to_json_s", "s", "lower"),
       ("serialize.output_bytes", "B", "lower"), ("trace.overhead_s", "s", "lower")]
)


class Rec:
    """Counters for one wrapped function."""

    __slots__ = ("calls", "incl", "self", "depth")

    def __init__(self):
        self.calls, self.incl, self.self, self.depth = 0, 0.0, 0.0, 0


def _module(name):
    return importlib.import_module(name if name == "fractions" else f"vertexkernel.{name}")


def _key(target):
    return f"{target[0]}:{target[1]}"


class Tracer:
    """Installs the wrappers, keeps their counters and reports PER_LAYER."""

    def __init__(self):
        self.recs = {}          # "module:qualname" -> Rec
        self.layer_of = {}      # "module:qualname" -> layer, spans only
        self.suite_s = dict.fromkeys(SUITES, 0.0)
        self.entries = dict.fromkeys(MEMOS, 0)
        self.cells = 0
        self.missing = []       # targets and memos this version of the program lacks
        self._models = []
        self._stack = []        # child-time accumulators of the open spans
        self._suite_open = False
        self._patches = []      # (owner, attribute, original)

    # -- install / uninstall -----------------------------------------------------------

    def install(self):
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self):
        suite_of = {_key(t): s for s, ts in SUITES.items() for t in ts}
        for layer, targets in SPANS.items():
            for t in targets:
                rec = self.recs[_key(t)] = Rec()
                self.layer_of[_key(t)] = layer
                self._wrap(t, lambda fn, rec=rec, s=suite_of.get(_key(t)):
                           self._span(fn, rec, s))
        for mod, method, _ in MEMOS.values():
            rec = self.recs[_key((mod, method))] = Rec()
            self._wrap((mod, method), lambda fn, rec=rec: self._count(fn, rec))
        for t in MODEL_CLASSES:
            rec = self.recs[_key(t)] = Rec()
            self._wrap(t, lambda fn, rec=rec: self._count(
                fn, rec, lambda args, out: self._models.append(args[0])))
        # the matrix kernel_coefficients builds gives linalg.cells
        kc = self.recs[_key(("linalg", "kernel_coefficients"))]
        matrix = ("linalg", "_matrix")
        rec = self.recs[_key(matrix)] = Rec()
        self._wrap(matrix, lambda fn: self._count(
            fn, rec, lambda args, rows: self._add_cells(kc, rows)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, target, make):
        mod_name, qual = target
        mod = _module(mod_name)
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(mod, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(_key(target))
                return
            if isinstance(raw, (staticmethod, classmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        fn = getattr(mod, qual, None)
        if fn is None:
            self.missing.append(_key(target))
            return
        new = make(fn)
        # rebind every module-level name the function is imported under
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "vertexkernel" or name.startswith("vertexkernel.")):
                continue
            for attr, value in list(vars(m).items()):
                if value is fn:
                    self._patches.append((m, attr, fn))
                    setattr(m, attr, new)

    # -- wrappers ----------------------------------------------------------------------

    def _span(self, fn, rec, suite):
        stack, clock, tracer = self._stack, time.perf_counter, self

        def span(*args, **kwargs):
            rec.calls += 1
            rec.depth += 1
            opens_suite = suite is not None and not tracer._suite_open
            if opens_suite:
                tracer._suite_open = True
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec.depth -= 1
                rec.self += dt - frame[0]
                if not rec.depth:
                    rec.incl += dt
                if stack:
                    stack[-1][0] += dt
                if opens_suite:
                    tracer._suite_open = False
                    tracer.suite_s[suite] += dt
        return span

    @staticmethod
    def _count(fn, rec, on_result=None):
        if on_result is None:
            def count(*args, **kwargs):
                rec.calls += 1
                return fn(*args, **kwargs)
        else:
            def count(*args, **kwargs):
                rec.calls += 1
                out = fn(*args, **kwargs)
                on_result(args, out)
                return out
        return count

    def _add_cells(self, kernel_rec, rows):
        if kernel_rec.depth and rows:
            self.cells += len(rows) * len(rows[0])

    # -- results -----------------------------------------------------------------------

    def harvest(self):
        """Add the memo sizes of the models built since the last harvest."""
        for obj in self._models:
            cls = type(obj).__name__
            for name, (_, method, attr) in MEMOS.items():
                if method.split(".")[0] != cls:
                    continue
                memo = getattr(obj, attr, None)
                if memo is not None:
                    self.entries[name] += len(memo)
                elif f"{cls}.{attr}" not in self.missing:
                    self.missing.append(f"{cls}.{attr}")
        self._models.clear()

    def _rec(self, target):
        return self.recs.get(_key(target)) or Rec()

    def layer_self_s(self, layer):
        return sum(r.self for k, r in self.recs.items() if self.layer_of.get(k) == layer)

    def metrics(self, overhead_s, output_bytes):
        """Every PER_LAYER metric by name: (value, unit)."""
        v = {f"cli.suite.{s}_s": t for s, t in self.suite_s.items()}
        rec = self._rec
        v["vla.validate_s"] = rec(("vla", "Presentation.validate")).incl
        v["vla.nth_product.calls"] = rec(("vla", "Presentation.nth_product")).calls
        v["current.bracket.calls"] = rec(("current", "bracket")).calls
        v["current.bracket.self_s"] = rec(("current", "bracket")).self
        v["lincomb.add_into.calls"] = rec(("lincomb", "LinComb.add_into")).calls
        v["lincomb.self_s"] = self.layer_self_s("lincomb")
        v["lincomb.fraction_self_s"] = self.layer_self_s("fractions")
        for name, (mod, target, _) in MEMOS.items():
            calls = rec((mod, target)).calls
            v[f"{name}.calls"] = calls
            v[f"{name}.entries"] = self.entries[name]
            v[f"{name}.hit_ratio"] = 1 - self.entries[name] / calls if calls else 0.0
        v["enveloping.state_mode.calls"] = rec(("enveloping", "VacuumModule.state_mode")).calls
        v["enveloping.self_s"] = self.layer_self_s("enveloping")
        v["constructions.eminus_apply.calls"] = rec(("constructions", "eminus_apply")).calls
        v["constructions.eminus_apply.self_s"] = rec(("constructions", "eminus_apply")).self
        v["constructions.self_s"] = self.layer_self_s("constructions")
        v["coalgebra.delta.calls"] = sum(rec(t).calls for t in DELTA_METHODS)
        v["coalgebra.self_s"] = self.layer_self_s("coalgebra")
        v["coalgebra.primitive_subspace.calls"] = rec(("coalgebra", "primitive_subspace")).calls
        v["coalgebra.primitive_subspace_s"] = rec(("coalgebra", "primitive_subspace")).incl
        v["linalg.kernel_coefficients.calls"] = rec(("linalg", "kernel_coefficients")).calls
        v["linalg.cells"] = self.cells
        v["linalg.self_s"] = self.layer_self_s("linalg")
        v["serialize.parse_state_s"] = rec(("serialize", "parse_state")).incl
        v["serialize.to_json_s"] = sum(rec(t).incl for t in TO_JSON)
        v["serialize.output_bytes"] = output_bytes
        v["trace.overhead_s"] = overhead_s
        return {name: (v[name], unit) for name, unit, _ in PER_LAYER}
