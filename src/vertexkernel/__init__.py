"""Exact computer algebra for vertex Lie algebras, their enveloping vertex
bialgebras, and the twisted tensor / differential bialgebra constructions
built on top of them.  Everything is computed over Q exactly, and every
structural claim ships with a bounded, exhaustive checker."""

from .coalgebra import (DividedPowerBialgebra, LieAlgebra, UniversalEnveloping,
                        check_coalgebra, check_delta_morphism, delta_state, dp_delta,
                        dp_product, group_like_scan, is_group_like, is_primitive,
                        primitive_subspace, psi_g)
from .constructions import (BL, PhiMap, SemigroupL, TensorPhiAlgebra, bl_phi, borcherds_mode,
                            check_bl_bialgebra, check_bl_equals_tensor_phi,
                            check_eminus_conjugation, check_phi_central,
                            check_tensor_phi_axioms, eminus_apply,
                            extend_universal_morphism, induced_vertex_morphism)
from .current import Mode, bracket, check_lie_axioms, mode_normalize
from .enveloping import VacuumModule
from .errors import InputError, MorphismError, UnsupportedError
from .lincomb import Fraction, LinComb
from .report import CheckResult, ValidationReport
from .vla import Generator, Presentation, abelian, builtin, heisenberg, virasoro

__version__ = "0.1.0"

__all__ = [
    "BL", "CheckResult", "DividedPowerBialgebra", "Fraction", "Generator",
    "InputError", "LieAlgebra", "LinComb", "Mode", "MorphismError", "PhiMap",
    "Presentation", "SemigroupL", "TensorPhiAlgebra", "UniversalEnveloping",
    "UnsupportedError", "VacuumModule", "ValidationReport", "abelian",
    "bl_phi", "borcherds_mode", "bracket", "builtin", "check_bl_bialgebra",
    "check_bl_equals_tensor_phi", "check_coalgebra", "check_delta_morphism",
    "check_eminus_conjugation", "check_lie_axioms", "check_phi_central",
    "check_tensor_phi_axioms", "delta_state", "dp_delta", "dp_product",
    "eminus_apply", "extend_universal_morphism", "group_like_scan", "heisenberg",
    "induced_vertex_morphism", "is_group_like", "is_primitive",
    "mode_normalize", "primitive_subspace", "psi_g", "virasoro",
]
