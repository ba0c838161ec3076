"""Batch front door: validate, compute, check, dims over JSON input files.

Input files are either presentations ({"builtin": "virasoro"} or inline
generator/product JSON) or constructions ({"presentation": ..., "semigroup":
{"rank": 1, "group": true}, "phi": [[...]]}).  Exit codes: 0 all checks pass,
1 some check failed, 2 malformed input, a negative bound, or an input too
large or too deep to evaluate.  JSON reports are byte-deterministic
for identical inputs (timings appear only in text output).
"""

import argparse
import functools
import sys
import time

from . import serialize
from .coalgebra import check_coalgebra, check_delta_morphism, primitive_subspace
from .constructions import (BL, PhiMap, SemigroupL, TensorPhiAlgebra,
                            check_bl_bialgebra, check_bl_equals_tensor_phi,
                            check_component_structure,
                            check_group_like_semigroup, check_phi_central,
                            check_tensor_phi_axioms, extend_universal_morphism,
                            induced_vertex_morphism)
from .current import bracket as mode_bracket
from .enveloping import VacuumModule
from .errors import InputError, MorphismError, UnsupportedError
from .lincomb import format_terms
from .report import ValidationReport
from .vla import format_element_key


@functools.cache
def build_parser():
    """The argument parser; built on first use and kept, as parsing leaves it
    unchanged."""
    p = argparse.ArgumentParser(
        prog="vertexkernel",
        description="Exact checks and computations for vertex Lie algebras, "
                    "their enveloping vertex bialgebras and derived constructions.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--input", required=True, help="presentation or construction JSON file")
        sp.add_argument("--format", choices=("json", "text"), default="text")

    sp = sub.add_parser("validate", help="vertex Lie algebra axioms on the product table")
    common(sp)

    sp = sub.add_parser("compute", help="one exact value: product, bracket, delta or mode")
    sp.add_argument("expression", choices=("product", "bracket", "delta", "mode"))
    sp.add_argument("operands", nargs="+")
    common(sp)

    sp = sub.add_parser("check", help="bounded identity sweeps")
    sp.add_argument("--suite", choices=SUITES, default="all")
    sp.add_argument("--max-weight", type=int, default=None)
    sp.add_argument("--mode-window", type=int, default=None)
    sp.add_argument("--torsion-bound", type=int, default=1)
    common(sp)

    sp = sub.add_parser("dims", help="graded and primitive dimensions")
    sp.add_argument("--max-weight", type=int, default=6)
    sp.add_argument("--torsion-bound", type=int, default=0)
    common(sp)
    return p


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(serialize.to_json_text(payload))
    else:
        print("\n".join(text_lines))


def _load(args):
    data = serialize.read_json_file(args.input)
    if serialize.is_construction(data):
        return serialize.load_construction(data)
    return serialize.load_presentation(data), None, None, None


# -- check suites -----------------------------------------------------------------


class _Run:
    """One check invocation: the loaded input, its vacuum module, and the bounds
    from the command line (mw and win fall back to each suite's default)."""

    def __init__(self, args):
        self.pres, self.rank, self.group, self.targets = _load(args)
        self.construction = self.rank is not None
        self.vm = VacuumModule(self.pres)
        self._mw, self._win, self.tb = args.max_weight, args.mode_window, args.torsion_bound

    def mw(self, default):
        return default if self._mw is None else self._mw

    def win(self, default):
        return default if self._win is None else self._win

    def semigroup(self):
        return SemigroupL(self.rank, self.group)

    @functools.cached_property
    def bl(self):
        """The B_L of a construction input, one for every suite of the run."""
        return BL(self.semigroup())


def _coalgebra(run):
    rep = check_coalgebra(run.vm, max_weight=run.mw(5), torsion_bound=run.tb)
    w = run.win(3)
    return rep.merge(check_delta_morphism(run.vm, run.vm.basis_states(run.mw(3), run.tb),
                                          range(-w, w + 1)))


def _tensor_phi(run):
    phi = (PhiMap.canonical(run.pres, run.rank) if run.targets is None
           else PhiMap(run.pres, run.targets))
    rep = check_phi_central(run.pres, phi)
    if not rep.passed:
        return rep
    tp = TensorPhiAlgebra(run.vm, run.semigroup(), phi)
    rep.merge(check_tensor_phi_axioms(tp, max_weight=run.mw(1), window=run.win(2),
                                      alpha_bound=1, torsion_bound=run.tb))
    rep.merge(check_group_like_semigroup(tp, alpha_bound=3, window=run.win(4)))
    return rep.merge(check_component_structure(tp, max_weight=run.mw(2), alpha_bound=2,
                                               window=run.win(3), torsion_bound=run.tb))


def _bl(run):
    rep = check_bl_bialgebra(run.bl, max_weight=run.mw(3), alpha_bound=2)
    return rep.merge(check_bl_equals_tensor_phi(run.bl, max_weight=run.mw(3), alpha_bound=2,
                                                window=run.win(4)))


def _morphism(run):
    """The morphism builders; a builder that refuses fails its *-exists check."""
    if run.construction:
        bl = run.bl
        emb = {nm: bl.monomial([(nm, -1)]) for nm in bl.names}
        builders = [
            ("morphism-extension-exists", lambda: extend_universal_morphism(
                bl, bl, bl.group_like, lambda i: bl.monomial([(bl.names[i], -1)]),
                max_weight=run.mw(2), alpha_bound=1)),
            ("morphism-induced-exists", lambda: induced_vertex_morphism(
                bl.pres, emb, bl, max_weight=run.mw(2), window=run.win(3), torsion_bound=0))]
    else:
        emb = {g.name: run.vm.embed(run.pres.element(g.name)) for g in run.pres.generators}
        builders = [("morphism-induced-exists", lambda: induced_vertex_morphism(
            run.pres, emb, run.vm, max_weight=run.mw(2), window=run.win(3),
            torsion_bound=run.tb))]
    rep = ValidationReport(subject="morphisms")
    for check_id, build in builders:
        try:
            rep.merge(build()[1])
        except MorphismError as exc:
            rep.add(check_id, False, witness=str(exc))
    return rep


# suite -> (needs a construction input, its job: a function of the _Run)
_SUITE_TABLE = {
    "validate": (False, lambda run: run.pres.validate()),
    "jacobi": (False, lambda run: run.vm.check_jacobi(
        max_weight=run.mw(2), window=run.win(2), torsion_bound=run.tb)),
    "skew": (False, lambda run: run.vm.check_skew_symmetry(
        max_weight=run.mw(5), window=run.win(4), torsion_bound=run.tb)),
    "commutator": (False, lambda run: run.vm.check_commutator(
        max_weight=run.mw(3), window=run.win(4), torsion_bound=run.tb)),
    "coalgebra": (False, _coalgebra),
    "tensor-phi": (True, _tensor_phi),
    "bl": (True, _bl),
    "morphism": (False, _morphism),
}
SUITES = tuple(name for name in _SUITE_TABLE if name != "validate") + ("all",)
# what --suite all runs, for a presentation input and for a construction input
ALL_PRESENTATION = ("validate", "skew", "commutator", "jacobi", "coalgebra", "morphism")
ALL_CONSTRUCTION = ("validate", "tensor-phi", "bl", "morphism")


def cmd_check(args):
    run = _Run(args)
    if args.suite == "all":
        names = ALL_CONSTRUCTION if run.construction else ALL_PRESENTATION
    elif _SUITE_TABLE[args.suite][0] and not run.construction:
        raise InputError(f"suite {args.suite!r} needs a construction input file "
                         "(with a \"semigroup\" field)")
    else:
        names = (args.suite,)

    merged = ValidationReport(subject=f"check:{args.suite}")
    lines = []
    for name in names:
        t0 = time.perf_counter()
        merged.merge(_SUITE_TABLE[name][1](run))
        lines.append(f"{name}: {(time.perf_counter() - t0) * 1000:.0f} ms")
    lines.append(merged.summary())
    _emit(args, {"command": "check", "suite": args.suite,
                 "passed": merged.passed, "report": merged.to_json()}, lines)
    return 0 if merged.passed else 1


def cmd_validate(args):
    pres, _, _, _ = _load(args)
    t0 = time.perf_counter()
    rep = pres.validate()
    elapsed = time.perf_counter() - t0
    _emit(args, {"command": "validate", "passed": rep.passed,
                 "report": rep.to_json()},
          [rep.summary(), f"elapsed: {elapsed * 1000:.0f} ms"])
    return 0 if rep.passed else 1


def cmd_compute(args):
    pres, _, _, _ = _load(args)
    vm = VacuumModule(pres)
    expr, ops = args.expression, args.operands

    def arity(n):
        if len(ops) != n:
            raise InputError(f"{expr} takes {n} operands, got {len(ops)}")

    def as_int(s):
        try:
            return int(s)
        except ValueError:
            raise InputError(f"expected an integer mode index, got {s!r}") from None

    # each value's terms are sorted once, by order, for both its text and its rows
    if expr == "product":
        arity(3)
        u = serialize.parse_element(pres, ops[0])
        v = serialize.parse_element(pres, ops[2])
        value = pres.nth_product(u, as_int(ops[1]), v)
        order, key_fmt, rows = None, format_element_key, serialize.element_to_json
    elif expr == "bracket":
        arity(2)
        value = mode_bracket(pres, serialize.parse_mode(ops[0]), serialize.parse_mode(ops[1]))
        order, key_fmt = None, str

        def rows(terms):
            return [{"coeff": str(c), "mode": serialize.mode_to_json(m)} for m, c in terms]
    elif expr == "delta":
        arity(1)
        value = vm.delta(serialize.parse_state(vm, ops[0]))
        order, rows = vm.pair_order, functools.partial(serialize.tensor_to_json, vm)

        def key_fmt(k):
            return f"{vm.format_word(k[0])} ⊗ {vm.format_word(k[1])}"
    else:  # mode
        arity(3)
        u = vm.embed(serialize.parse_element(pres, ops[0]))
        v = serialize.parse_state(vm, ops[2])
        value = vm.state_mode(u, as_int(ops[1]), v)
        order, key_fmt = vm.word, vm.format_word
        rows = functools.partial(serialize.state_to_json, vm)
    terms = value.sorted_items(order)
    # the rows replace the sorted pairs, which then do not outlive the rendering
    text, terms = format_terms(terms, key_fmt), rows(terms)

    _emit(args, {"command": "compute", "expression": expr, "operands": list(ops),
                 "passed": True, "value": {"text": text, "terms": terms}},
          [f"{expr} {' '.join(ops)} → {text}"])
    return 0


def cmd_dims(args):
    pres, _, _, _ = _load(args)
    vm = VacuumModule(pres)
    table = []
    for w in range(args.max_weight + 1):
        table.append({"weight": w,
                      "dim": vm.graded_dimension(w, args.torsion_bound),
                      "primitive": len(primitive_subspace(vm, w, args.torsion_bound))})
    lines = ["weight  dim  primitive"]
    lines += [f"{r['weight']:>6}  {r['dim']:>3}  {r['primitive']:>9}" for r in table]
    _emit(args, {"command": "dims", "max_weight": args.max_weight,
                 "torsion_bound": args.torsion_bound, "passed": True,
                 "table": table}, lines)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {"validate": cmd_validate, "compute": cmd_compute,
                "check": cmd_check, "dims": cmd_dims}
    try:
        for dest in ("max_weight", "mode_window", "torsion_bound"):  # the bounds of check, dims
            value = getattr(args, dest, None)
            if value is not None and value < 0:
                raise InputError(f"--{dest.replace('_', '-')} must be nonnegative, got {value}")
        return handlers[args.command](args)
    except (InputError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply for the evaluator "
              "(Python recursion limit reached)", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try smaller inputs or bounds", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
