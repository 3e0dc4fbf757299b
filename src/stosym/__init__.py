"""Symbolic and numerical symmetry analysis of Ito stochastic differential
equations: determining equations, candidate verification, ansatz-based
solving, the Fokker-Planck correspondence, discrete maps, a periodic
growth-chain module and Monte-Carlo cross-validation."""

from .kernel import (Context, DomainError, ExprError, InconclusiveError,
                     ParseError, UnboundSymbolError, UndeclaredSymbolError,
                     Verdict, all_zero, eval_numeric, is_zero, normalize,
                     parse_expr, to_dsl, zero_verdict)
from .model import (DegeneracyError, DiscreteMap, FokkerPlanck, ItoSystem,
                    VectorField, apply_discrete, fokker_planck_of,
                    ito_to_stratonovich, lie_bracket, same_fp,
                    transform_ito_first_order)
from .detgen import (DeterminingSystem, detsys_discrete, detsys_fp,
                     detsys_ode, detsys_projectable)
from .verify import (FpClassification, OverallVerdict, VerificationReport,
                     check, check_fp, check_normalization_preserving,
                     check_superposition, extend_to_fp)
from .solve import (Ansatz, NonClosedBasisError, NonlinearEntanglementError,
                    OutsideAnsatzError, StructuralFact, SymmetryBasis,
                    commutator, commutator_closure, default_time_basis,
                    membership_coordinates, solve_ansatz,
                    xi_second_derivative_constraint)
from .dsl import (candidate_to_dict, load_candidate, load_system,
                  parse_candidate, parse_system, to_cand, to_sde)
from .kpz import (KpzChain, inversion_matrix, kpz_check_discrete,
                  kpz_detsys_continuous, kpz_ito, site_shift_matrix)

__version__ = "0.1.0"

# The Monte-Carlo layer pulls in SciPy, which symbolic work never needs, so
# its names are loaded on first access (PEP 562).
_MCSIM_NAMES = frozenset({
    "BlowupError", "ComparisonReport", "Ensemble", "InputError",
    "compare_ensembles",
    "euler_maruyama", "export_binary", "load_binary", "validate_symmetry_mc",
})


def __getattr__(name):
    if name in _MCSIM_NAMES:
        from . import mcsim
        return getattr(mcsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
