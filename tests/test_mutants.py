"""Mutation rows: each row replaces one function of the twisted-mode layer with
a broken copy and names the smallest suite and bounds that kill it, that is,
make `vertexkernel check` exit 1 with a witness.  A row that stops failing
means the checks no longer see that fault."""

import json
import os
from fractions import Fraction

import pytest

from vertexkernel import cli, constructions
from vertexkernel.constructions import BL, TensorPhiAlgebra
from vertexkernel.current import mode_normalize
from vertexkernel.lincomb import LinComb

CENTRE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "inputs",
                      "heisenberg_centre.json")


def eminus_over_k_plus_1(vm, a, v, order):
    """eminus_apply with k T_k = ... read as (k+1) T_k = ... from T_2 on."""
    out = [v]
    combos = [mode_normalize(vm.pres, a, -n) for n in range(1, order + 1)]
    for k in range(1, order + 1):
        acc = LinComb()
        for n in range(1, k + 1):
            acc.add_into(vm.combo_apply(combos[n - 1], out[k - n]))
        out.append(acc if k == 1 else Fraction(1, k + 1) * acc)
    return out


def eminus_fill_seeded_at_vacuum(self, al, word, k):
    """TensorPhiAlgebra._eminus_word with its fill seeded at |0> for every k."""
    memo = self._eminus.get((al, k))
    if memo is None:
        memo = self._eminus[al, k] = {0: self.vm.vacuum()}
    return self.vm._fill(memo, word, lambda h, w, s: self.vm._act(h, s))


def d_key_without_phi(self, key):
    """TensorPhiAlgebra._d_key without its phi(al)(-1) term."""
    w, al = key
    return self.vm.D(LinComb.single(w)).map_keys(lambda w2: (w2, al))


_BL_D = BL.D


def bl_d_sign_flipped(self, state, power=1):
    """BL.D as -del."""
    return _BL_D(self, state, power) * (-1) ** power


# (row, owner, attribute, mutant, suite and bounds, failing check, its witness)
ROWS = [
    ("eminus-1/(k+1)", constructions, "eminus_apply", eminus_over_k_plus_1,
     ["--suite", "bl", "--max-weight", "0", "--mode-window", "3"],
     "bl-equals-tensor-phi-modes", "modes differ at (e^{(-2)})_-3(e^{(-2)})"),
    ("eminus-fill-seeded-at-vacuum", TensorPhiAlgebra, "_eminus_word",
     eminus_fill_seeded_at_vacuum, ["--suite", "bl", "--max-weight", "0", "--mode-window", "0"],
     "bl-equals-tensor-phi-d", "derivations differ at e^{(-2)}"),
    ("d-key-without-phi", TensorPhiAlgebra, "_d_key", d_key_without_phi,
     ["--suite", "bl", "--max-weight", "0", "--mode-window", "0"],
     "bl-equals-tensor-phi-d", "derivations differ at e^{(-2)}"),
    ("bl-d-sign-flipped", BL, "D", bl_d_sign_flipped,
     ["--suite", "morphism", "--max-weight", "0", "--mode-window", "0"],
     "morphism-extension-exists", "del psi(e^(-1,)) != phi_B(abar) psi(e^(-1,))"),
]


def check(capsys, bounds):
    code = cli.main(["check", "--format", "json", "--input", CENTRE, *bounds])
    report = json.loads(capsys.readouterr().out)["report"]
    return code, [c for c in report["checks"] if not c["passed"]]


@pytest.mark.parametrize("row, owner, attr, mutant, bounds, check_id, want",
                         ROWS, ids=[r[0] for r in ROWS])
def test_mutant_is_killed(monkeypatch, capsys, row, owner, attr, mutant, bounds,
                          check_id, want):
    assert check(capsys, bounds) == (0, [])
    monkeypatch.setattr(owner, attr, mutant)
    code, failed = check(capsys, bounds)
    assert code == 1
    first = next(c for c in failed if c["check"] == check_id)
    assert first["witness"].split(" (+")[0] == want
