import json

import pytest
import sympy as sp

from stosym.kernel import Context
from stosym.model import VectorField
from stosym.detgen import detsys_discrete, detsys_fp, detsys_projectable
from stosym.solve import Ansatz, solve_ansatz
from stosym.verify import (FpClassification, OverallVerdict, check, check_fp,
                           check_normalization_preserving,
                           check_superposition, extend_to_fp)
from conftest import candidate_for


def _strip_beta(vf):
    return VectorField(context=vf.context, tau=vf.tau, xi=vf.xi)


def run_manifest_entry(entry, systems):
    ito = systems[entry["system"]]
    cand = candidate_for(entry, systems)
    kind = entry["check"]
    if kind == "ito":
        if isinstance(cand, VectorField) and cand.beta is not None:
            cand = _strip_beta(cand)
        return check(detsys_projectable(ito, cand)).overall.value
    if kind == "fp":
        vf = cand if cand.beta is not None else extend_to_fp(cand)
        return check(detsys_fp(ito, vf)).overall.value
    if kind == "normalization":
        vf = cand if cand.beta is not None else extend_to_fp(cand)
        return check_normalization_preserving(vf)
    if kind == "classification":
        return check_fp(ito, cand).classification.value
    if kind == "w":
        return check(detsys_projectable(ito, cand)).overall.value
    if kind == "discrete":
        return check(detsys_discrete(ito, cand)).overall.value
    raise ValueError(kind)


def _manifest_entries():
    from conftest import FIXTURES
    man = json.loads((FIXTURES / "manifest.json").read_text())
    return man["checks"]


@pytest.mark.parametrize(
    "entry", _manifest_entries(),
    ids=lambda e: f"{e['system']}:{e['candidate']}:{e['check']}")
def test_manifest_expectation(entry, systems):
    assert run_manifest_entry(entry, systems) == entry["expected"]


class TestFpRoundTrip:
    """Every pathwise symmetry extends to a normalization-preserving FP
    symmetry and projects back to a pathwise symmetry."""

    @pytest.mark.parametrize("system_name,candidate_name", [
        ("heat.sde", "heat_v1.cand"),
        ("heat.sde", "heat_v2.cand"),
        ("heat.sde", "heat_v5.cand"),
        ("kramers.sde", "kramers_v1.cand"),
        ("kramers.sde", "kramers_v2.cand"),
        ("kramers.sde", "kramers_v3.cand"),
        ("langevin2.sde", "langevin_v1.cand"),
        ("langevin2.sde", "langevin_v2.cand"),
        ("langevin2.sde", "langevin_q1.cand"),
    ])
    def test_round_trip(self, systems, system_name, candidate_name):
        entry = {"system": system_name, "candidate": candidate_name}
        ito = systems[system_name]
        vf = candidate_for(entry, systems)
        assert check(detsys_projectable(ito, vf)).is_symmetry
        ext = extend_to_fp(vf)
        assert check_normalization_preserving(ext)
        assert check(detsys_fp(ito, ext)).is_symmetry
        assert check_fp(ito, ext).classification is FpClassification.ITO_SYMMETRY


class TestProjection:
    def test_statistical_equivalence(self, systems):
        rot = systems["rotating.sde"]
        vf = extend_to_fp(VectorField(context=rot.context, tau=1))
        assert (check_fp(rot, vf).classification
                is FpClassification.STATISTICAL_EQUIVALENCE)

    def test_undecided_gamma_raises(self, systems, monkeypatch):
        """An undecided Gamma entry is not read as Gamma != 0."""
        import stosym.kernel as kernel
        real = kernel.zero_verdict

        def undecided_if_nonzero(e):
            v = real(e)
            return kernel.Verdict.INCONCLUSIVE if v is kernel.Verdict.NONZERO else v
        rot = systems["rotating.sde"]
        vf = extend_to_fp(VectorField(context=rot.context, tau=1))
        monkeypatch.setattr(kernel, "zero_verdict", undecided_if_nonzero)
        with pytest.raises(kernel.InconclusiveError):
            check_fp(rot, vf)

    def test_precondition_normalization(self, systems):
        """A beta that does not preserve normalization is reported so, and
        the candidate is not classified."""
        heat = systems["heat.sde"]
        vf = VectorField(context=heat.context, tau=0,
                         xi=(sp.Integer(0),), beta=1)
        report = check_fp(heat, vf)
        assert report.normalization_preserving is False
        assert report.classification is None
        assert "classification" not in report.to_dict()

    def test_noise_mixer_refused(self, systems):
        """A W generator has no Fokker-Planck extension or projection; each
        entry point says so with a ValueError."""
        lan = systems["langevin2.sde"]
        x1, x2 = lan.context.spatial
        ws = VectorField(context=lan.context, xi=(x2, -x1),
                         Bmat=((0, 1), (-1, 0)))
        with pytest.raises(ValueError, match="not supported on noise-mixing"):
            extend_to_fp(ws)
        with pytest.raises(ValueError):
            check_normalization_preserving(ws)
        with pytest.raises(ValueError, match="not supported on noise-mixing"):
            check_fp(lan, ws)

    @pytest.mark.parametrize("call,message", [
        (lambda heat, vf: detsys_fp(heat, vf),
         "FP determining equations require a beta component"),
        (lambda heat, vf: extend_to_fp(extend_to_fp(vf)),
         "candidate already carries a beta component"),
        (lambda heat, vf: solve_ansatz(heat, Ansatz(
            degree=1, time_basis=(1,), t=heat.context.t), which="fp"),
         "which must be 'projectable' or 'w'"),
    ], ids=["detsys-fp-without-beta", "extend-twice", "solve-fp"])
    def test_beta_preconditions(self, systems, call, message):
        """Each Fokker-Planck entry point refuses a candidate without the
        beta it needs, or with one it would add, and the solver a family
        it does not solve."""
        heat = systems["heat.sde"]
        vf = VectorField(context=heat.context, tau=1, xi=(sp.Integer(0),))
        with pytest.raises(ValueError) as err:
            call(heat, vf)
        assert err.value.args == (message,)

    def test_precondition_fp_symmetry(self, systems):
        """A normalization-preserving candidate that is not a Fokker-Planck
        symmetry is not classified."""
        heat = systems["heat.sde"]
        x = heat.context.spatial[0]
        vf = extend_to_fp(VectorField(context=heat.context, tau=0, xi=(x**2,)))
        report = check_fp(heat, vf)
        assert report.overall is OverallVerdict.NOT_SYMMETRY
        assert report.normalization_preserving is True
        assert report.classification is None


class TestSuperposition:
    def test_solution_generates_trivial_symmetry(self, systems):
        heat = systems["heat.sde"]
        ctx = heat.context
        x, t, s0 = ctx.spatial[0], ctx.t, ctx.symbol("s0")
        assert check_superposition(heat, x**2 + s0**2 * t)
        assert check_superposition(heat, x)
        assert not check_superposition(heat, x**2)
        # outside the ring: the same operator on expressions
        assert check_superposition(heat, sp.exp(s0**2 * t / 2 + x))
        assert not check_superposition(heat, sp.exp(t + x))

    def test_undecided_raises(self, systems, monkeypatch):
        """An undecided residual is not read as 'not a solution'."""
        import stosym.kernel as kernel
        heat = systems["heat.sde"]
        monkeypatch.setattr(kernel, "zero_verdict",
                            lambda e: kernel.Verdict.INCONCLUSIVE)
        with pytest.raises(kernel.InconclusiveError):
            check_superposition(heat, heat.context.spatial[0])


class TestCheckMechanics:
    def test_unbound_unknowns_raise(self, systems):
        kramers = systems["kramers.sde"]
        ctx = kramers.context
        octx = Context(spatial=ctx.spatial_names, params=ctx.param_assumptions,
                       noises=ctx.noise_names, opaque=("h",))
        h = octx.opaque["h"]
        vf = VectorField(context=octx, tau=0, xi=(h(octx.t), sp.Integer(0)))
        ds = detsys_projectable(kramers, vf)
        with pytest.raises(ValueError):
            check(ds)

    def test_residuals_decided_by_public_zero_verdict(self, systems,
                                                       monkeypatch):
        """check decides every residual through the public zero test, once
        each, so a wrapper on it sees every verdict."""
        import stosym.verify as verify
        kramers = systems["kramers.sde"]
        ds = detsys_projectable(kramers, VectorField(context=kramers.context,
                                                     tau=1))
        seen = []
        decide = verify.zero_verdict
        monkeypatch.setattr(verify, "zero_verdict",
                            lambda e: seen.append(e) or decide(e))
        rep = check(ds)
        assert seen == list(ds.residuals())
        assert [v for _, v, _ in rep.per_equation] == [
            decide(e) for e in seen]

    def test_report_serialization(self, systems):
        heat = systems["heat.sde"]
        vf = VectorField(context=heat.context, tau=1)
        d = check(detsys_projectable(heat, vf)).to_dict()
        assert d["schema"] == 1
        assert d["overall"] == "symmetry"
        assert {e["label"] for e in d["equations"]} == {"Lambda[1]", "Gamma[1][1]"}


def test_normalization_preserving_inconclusive_raises(systems, monkeypatch):
    """An undecided beta + div(xi) raises instead of answering False."""
    import stosym.kernel as kernel
    ito = systems["heat.sde"]
    vf = extend_to_fp(VectorField(context=ito.context, xi=(sp.Integer(1),)))
    assert check_normalization_preserving(vf)
    monkeypatch.setattr(kernel, "zero_verdict",
                        lambda e: kernel.Verdict.INCONCLUSIVE)
    with pytest.raises(kernel.InconclusiveError):
        check_normalization_preserving(vf)


def test_check_fp_builds_no_residual(monkeypatch):
    """check_fp of heat_v1, the time shift, extended by beta = -div(xi),
    builds the expressions of fokker_planck_of's A, B and C and nothing
    else: its report keeps the ring residuals until a reader asks for
    them. The derived beta is not tested again for normalization, so
    div(xi) is taken once."""
    import stosym.verify as verify
    from sympy.polys.rings import PolyElement
    from stosym.dsl import load_candidate, load_system
    from conftest import FIXTURES
    # a system of its own, whose Fokker-Planck equation is not built yet
    heat = load_system(FIXTURES / "heat.sde")
    vf = load_candidate(FIXTURES / "heat_v1.cand", heat)
    calls, divergences = [], []
    as_expr, divergence = PolyElement.as_expr, verify._divergence
    monkeypatch.setattr(PolyElement, "as_expr",
                        lambda self, *a: calls.append(self) or as_expr(self, *a))
    monkeypatch.setattr(verify, "_divergence",
                        lambda v: divergences.append(v) or divergence(v))
    report = check_fp(heat, vf)
    assert report.classification is FpClassification.ITO_SYMMETRY
    assert report.normalization_preserving is True
    assert len(calls) == 3 and len(divergences) == 1
    residuals = [e for *_, e in report._stored("per_equation")]
    assert residuals and all(isinstance(e, PolyElement) for e in residuals)
    report.to_dict()
    assert len(calls) == 3 + len(residuals)
