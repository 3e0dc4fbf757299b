"""Verdicts on symmetry candidates, the Ito <-> Fokker-Planck
correspondence, and the normalization-preservation test."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import sympy as sp

from .kernel import Verdict, _dsl, _fold, all_zero, is_zero, substitute, \
    zero_verdict
from .model import ItoSystem, VectorField, fokker_planck_of
from .detgen import DeterminingSystem, _lambda_gamma, detsys_fp

__all__ = [
    "OverallVerdict", "FpClassification", "VerificationReport",
    "PreconditionError", "check", "extend_to_fp",
    "check_normalization_preserving", "project_fp_symmetry",
    "check_superposition",
]


class OverallVerdict(enum.Enum):
    SYMMETRY = "symmetry"
    NOT_SYMMETRY = "not_symmetry"
    INCONCLUSIVE = "inconclusive"


class FpClassification(enum.Enum):
    ITO_SYMMETRY = "ito_symmetry"
    STATISTICAL_EQUIVALENCE = "statistical_equivalence"


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class VerificationReport:
    system_name: str
    per_equation: tuple  # of (label, Verdict, residual)
    overall: OverallVerdict
    classification: FpClassification | None = None

    @property
    def is_symmetry(self):
        return self.overall is OverallVerdict.SYMMETRY

    def to_dict(self):
        d = {
            "schema": 1,
            "system": self.system_name,
            "equations": [
                {"label": label, "verdict": v.value, "residual": _dsl(r)}
                for label, v, r in self.per_equation
            ],
            "overall": self.overall.value,
        }
        if self.classification is not None:
            d["classification"] = self.classification.value
        return d


_OVERALL = {Verdict.ZERO: OverallVerdict.SYMMETRY,
            Verdict.NONZERO: OverallVerdict.NOT_SYMMETRY,
            Verdict.INCONCLUSIVE: OverallVerdict.INCONCLUSIVE}


def check(ds: DeterminingSystem, bindings=None) -> VerificationReport:
    """Substitute candidate bindings for the free unknowns of the system and
    classify every residual. Overall verdict is SYMMETRY iff every residual
    is provably zero and NOT_SYMMETRY if one is provably nonzero; otherwise
    an INCONCLUSIVE residual makes it INCONCLUSIVE, never a silent pass."""
    by_name = {getattr(k, "__name__", k): v
               for k, v in dict(bindings or {}).items()}
    missing = [f.__name__ for f in ds.free_unknowns if f.__name__ not in by_name]
    if missing:
        raise ValueError(f"unbound unknowns: {', '.join(missing)}")
    per_equation = []
    for label, e in ds.equations:
        if by_name:
            e = substitute(e, _resolve_bindings(e, by_name))
        per_equation.append((label, zero_verdict(e), e))
    overall = _OVERALL[_fold(v for _, v, _ in per_equation)]
    return VerificationReport(system_name=ds.name,
                              per_equation=tuple(per_equation), overall=overall)


def _resolve_bindings(e, by_name):
    """Map the bindings, keyed by name, onto the opaque functions actually
    present in the expression."""
    out = {}
    for f in e.atoms(sp.core.function.AppliedUndef):
        name = f.func.__name__
        if name in by_name:
            val = by_name[name]
            if not isinstance(val, sp.Lambda):
                val = sp.Lambda(tuple(f.args), sp.sympify(val))
            out[f.func] = val
    return out


def _divergence(vf: VectorField):
    return sp.Add(*map(sp.diff, vf.xi, vf.context.spatial))


def extend_to_fp(vf: VectorField) -> VectorField:
    """Unique normalization-preserving extension beta = -div(xi); a
    generator with a noise mixer has none (VectorField refuses both)."""
    if vf.beta is not None:
        raise ValueError("candidate already carries a beta component")
    return VectorField(context=vf.context, tau=vf.tau, xi=vf.xi,
                       beta=-_divergence(vf), name=vf.name, Bmat=vf.Bmat)


def check_normalization_preserving(vf: VectorField) -> bool:
    """True iff beta = -div(xi); raises InconclusiveError when the zero
    test cannot decide."""
    if vf.beta is None:
        raise ValueError("candidate has no beta component")
    return is_zero(vf.beta + _divergence(vf))


def project_fp_symmetry(ito: ItoSystem, vf: VectorField) -> FpClassification:
    """Classify a normalization-preserving Fokker-Planck symmetry:
    ITO_SYMMETRY when Gamma == 0, STATISTICAL_EQUIVALENCE otherwise: the
    Fokker-Planck residuals FP-A = (1/2)(sigma Gamma^T + Gamma sigma^T)
    vanish, so the transition law is kept. Raises InconclusiveError when
    the zero test cannot decide whether Gamma vanishes."""
    if vf.beta is None or not check_normalization_preserving(vf):
        raise PreconditionError("candidate must carry beta = -div(xi)")
    fp_report = check(detsys_fp(ito, vf))
    if not fp_report.is_symmetry:
        raise PreconditionError("candidate is not a Fokker-Planck symmetry")
    return _fp_classification(ito, vf)


def _fp_classification(ito: ItoSystem, vf: VectorField) -> FpClassification:
    """The Gamma-based classification of `project_fp_symmetry`, for a
    candidate already known to be a normalization-preserving Fokker-Planck
    symmetry."""
    _, gam = _lambda_gamma(ito, vf)
    if all_zero(e for row in gam for e in row):
        return FpClassification.ITO_SYMMETRY
    return FpClassification.STATISTICAL_EQUIVALENCE


def check_superposition(ito: ItoSystem, alpha) -> bool:
    """True iff alpha(x,t) solves the Fokker-Planck equation of the system
    (that of `fokker_planck_of`), i.e. generates a trivial superposition
    symmetry alpha(x,t) d_u (excluded from classification); raises
    InconclusiveError when the zero test cannot decide."""
    fokker_planck_of(ito)
    c, ((alpha,),) = ito._of([(alpha,)])
    return is_zero(c.calc.leave(c.fp_L(alpha, c.calc.gradient(alpha, c.x))
                                + c.fokker_planck[2] * alpha))
