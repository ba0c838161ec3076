"""Exact computer algebra for vertex Lie algebras, their enveloping vertex
bialgebras, and the twisted tensor / differential bialgebra constructions
built on top of them.  Everything is computed over Q exactly, and every
structural claim ships with a bounded, exhaustive checker."""

from .coalgebra import (DividedPowerBialgebra, LieAlgebra, UniversalEnveloping,
                        check_coalgebra, check_delta_morphism, check_psi_coalgebra,
                        group_like_scan, is_group_like, is_primitive, primitive_subspace)
from .constructions import (BL, PhiMap, SemigroupL, TensorPhiAlgebra, check_bl_bialgebra,
                            check_bl_equals_tensor_phi, check_eminus_conjugation,
                            check_phi_central, check_tensor_phi_axioms,
                            extend_universal_morphism, induced_vertex_morphism)
from .current import check_lie_axioms
from .enveloping import VacuumModule
from .errors import InputError, MorphismError, UnsupportedError
from .lincomb import LinComb
from .report import ValidationReport
from .vla import Generator, Presentation, abelian, builtin, heisenberg, virasoro

__version__ = "0.1.0"

# the library entry points README's "Library quickstart" lists; the rest stays
# importable from its module
__all__ = [
    "BL", "DividedPowerBialgebra", "Generator", "InputError", "LieAlgebra", "LinComb",
    "MorphismError", "PhiMap", "Presentation", "SemigroupL", "TensorPhiAlgebra",
    "UniversalEnveloping", "UnsupportedError", "VacuumModule", "ValidationReport",
    "abelian", "builtin", "check_bl_bialgebra", "check_bl_equals_tensor_phi",
    "check_coalgebra", "check_delta_morphism", "check_eminus_conjugation",
    "check_lie_axioms", "check_phi_central", "check_psi_coalgebra",
    "check_tensor_phi_axioms", "extend_universal_morphism", "group_like_scan",
    "heisenberg", "induced_vertex_morphism", "is_group_like", "is_primitive",
    "primitive_subspace", "virasoro",
]
