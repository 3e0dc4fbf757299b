"""Verdicts on symmetry candidates: `check` decides a determining system,
and `check_fp` decides a candidate's Fokker-Planck symmetry, whether it
preserves normalization, and whether it is pathwise or only in law."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import sympy as sp
from sympy.polys.rings import PolyElement

from .kernel import Verdict, _dsl, _fold, all_zero, is_zero, zero_verdict
from .model import ItoSystem, VectorField, _Views, fokker_planck_of
from .detgen import DeterminingSystem, _lambda_gamma, detsys_fp

__all__ = [
    "OverallVerdict", "FpClassification", "VerificationReport", "check",
    "check_fp", "extend_to_fp", "check_normalization_preserving",
    "check_superposition",
]


class OverallVerdict(enum.Enum):
    SYMMETRY = "symmetry"
    NOT_SYMMETRY = "not_symmetry"
    INCONCLUSIVE = "inconclusive"


class FpClassification(enum.Enum):
    ITO_SYMMETRY = "ito_symmetry"
    STATISTICAL_EQUIVALENCE = "statistical_equivalence"


@dataclass(frozen=True)
class VerificationReport(_Views):
    """The verdict on each residual and overall. A residual that is a ring
    element is kept as it is and read as its expression (`model._Views`)."""
    system_name: str
    per_equation: tuple  # of (label, Verdict, residual)
    overall: OverallVerdict
    classification: FpClassification | None = None
    normalization_preserving: bool | None = None  # of a Fokker-Planck check

    def __post_init__(self):
        if any(isinstance(e, PolyElement) for *_, e in self.per_equation):
            self._keep("per_equation", tuple(self.per_equation))

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
        if self.normalization_preserving is not None:
            d["normalization_preserving"] = self.normalization_preserving
        return d


_OVERALL = {Verdict.ZERO: OverallVerdict.SYMMETRY,
            Verdict.NONZERO: OverallVerdict.NOT_SYMMETRY,
            Verdict.INCONCLUSIVE: OverallVerdict.INCONCLUSIVE}


def check(ds: DeterminingSystem) -> VerificationReport:
    """Classify every residual of a system without free unknowns. Overall
    verdict is SYMMETRY iff every residual is provably zero and
    NOT_SYMMETRY if one is provably nonzero; otherwise an INCONCLUSIVE
    residual makes it INCONCLUSIVE, never a silent pass."""
    if ds.free_unknowns:
        raise ValueError("unbound unknowns: "
                         + ", ".join(f.__name__ for f in ds.free_unknowns))
    per_equation = tuple((label, zero_verdict(e), e)
                         for label, e in ds._stored("equations"))
    return VerificationReport(
        system_name=ds.name, per_equation=per_equation,
        overall=_OVERALL[_fold(v for _, v, _ in per_equation)])


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


def check_fp(ito: ItoSystem, vf: VectorField) -> VerificationReport:
    """The Fokker-Planck check of a vector field, extended by
    beta = -div(xi) when it has no beta: the report of its Fokker-Planck
    determining system, with whether beta preserves normalization. A
    normalization-preserving Fokker-Planck symmetry is also classified:
    ITO_SYMMETRY when Gamma == 0, STATISTICAL_EQUIVALENCE otherwise (the
    residuals FP-A = (1/2)(sigma Gamma^T + Gamma sigma^T) vanish, so the
    transition law is kept). Raises ValueError for a generator with a
    noise mixer, and InconclusiveError when the zero test cannot decide
    normalization or whether Gamma vanishes."""
    derived = vf.beta is None
    if derived:
        vf = extend_to_fp(vf)
    report = check(detsys_fp(ito, vf))
    # -div(xi) preserves normalization by construction
    preserving = derived or check_normalization_preserving(vf)
    classification = None
    if report.is_symmetry and preserving:
        _, gam = _lambda_gamma(ito, vf)
        classification = (FpClassification.ITO_SYMMETRY
                          if all_zero(e for row in gam for e in row)
                          else FpClassification.STATISTICAL_EQUIVALENCE)
    return report._replace(classification=classification,
                           normalization_preserving=preserving)


def check_superposition(ito: ItoSystem, alpha) -> bool:
    """True iff alpha(x,t) solves the Fokker-Planck equation of the system
    (that of `fokker_planck_of`), i.e. generates a trivial superposition
    symmetry alpha(x,t) d_u (excluded from classification); raises
    InconclusiveError when the zero test cannot decide."""
    fokker_planck_of(ito)
    c, ((alpha,),) = ito._of([(alpha,)])
    return is_zero(c.calc.leave(c.fp_L(alpha, c.calc.gradient(alpha, c.x))
                                + c.fokker_planck[2] * alpha))
