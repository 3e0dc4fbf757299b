"""Determining-equation systems, emitted as raw residual expressions
required to vanish identically in (x, t).

Every family is expressed through S = (1/2) sigma sigma^T so that the
reductions hold exactly: the W system with B = 0 equals the projectable
system, which at tau = 0 equals the spatial system, equation by equation.
"""
from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from .kernel import normalize, substitute
from .model import (DiscreteMap, FokkerPlanck, ItoSystem, VectorField,
                    WSymmetry, fokker_planck_of, lie_bracket)

__all__ = [
    "DeterminingSystem", "detsys_ode", "detsys_spatial", "detsys_projectable",
    "detsys_fp", "detsys_w", "detsys_discrete", "gamma", "lambda_",
]


@dataclass(frozen=True)
class DeterminingSystem:
    name: str
    equations: tuple  # of (label, expr) pairs
    free_unknowns: tuple = ()

    def labels(self):
        return tuple(label for label, _ in self.equations)

    def residuals(self):
        return tuple(e for _, e in self.equations)


def _unknown_functions(exprs):
    funcs = set()
    for e in exprs:
        for f in sp.sympify(e).atoms(sp.core.function.AppliedUndef):
            funcs.add(f.func)
    return tuple(sorted(funcs, key=lambda f: f.__name__))


def _pack(name, equations):
    eqs = tuple((label, normalize(e)) for label, e in equations)
    return DeterminingSystem(name=name, equations=eqs,
                             free_unknowns=_unknown_functions(e for _, e in eqs))


def _lambda_gamma_operator(ito: ItoSystem):
    """The candidate -> (Lambda, Gamma) operator of `ito`, which is linear
    in the candidate. S and the derivatives of f and sigma are computed
    once; the returned function maps (tau, xi, B), with B a constant
    antisymmetric m x m matrix or None, to the raw, unnormalized residuals:
    a list of n Lambda entries and n rows of m Gamma entries."""
    x, t = ito.context.spatial, ito.context.t
    n, m, f, sigma = ito.n, ito.m, ito.f, ito.sigma
    S = ito.half_diffusion()
    df = [[sp.diff(f[i], v) for v in x] for i in range(n)]
    dsigma = [[[sp.diff(sigma[k][j], v) for v in x] for j in range(m)]
              for k in range(n)]
    dt_sigma = [[sp.diff(sigma[k][j], t) for j in range(m)] for k in range(n)]

    def apply(tau, xi, B=None):
        # Lambda^i = -[d_t(xi^i - tau f^i) + {f, xi}^i + S^{ab} d2_{ab} xi^i]
        lam = [-(sp.diff(xi[i] - tau * f[i], t)
                 + sum(f[a] * sp.diff(xi[i], x[a]) - xi[a] * df[i][a]
                       for a in range(n))
                 + sum(S[a, b] * sp.diff(xi[i], x[a], x[b])
                       for a in range(n) for b in range(n)))
               for i in range(n)]
        # Gamma^k_j = sigma^a_j d_a xi^k - xi^a d_a sigma^k_j
        #             - tau d_t sigma^k_j - (1/2) sigma^k_j d_t tau - (sigma B)^k_j
        dtau = sp.diff(tau, t)
        gam = [[sum(sigma[a][j] * sp.diff(xi[k], x[a]) - xi[a] * dsigma[k][j][a]
                    for a in range(n))
                - tau * dt_sigma[k][j] - sp.Rational(1, 2) * sigma[k][j] * dtau
                - (sum(sigma[k][p] * B[p, j] for p in range(m))
                   if B is not None else 0)
                for j in range(m)] for k in range(n)]
        return lam, gam
    return apply


def _lambda_gamma(ito, candidate):
    B = candidate.b_matrix() if isinstance(candidate, WSymmetry) else None
    return _lambda_gamma_operator(ito)(candidate.tau, candidate.xi, B)


def gamma(ito: ItoSystem, candidate):
    """Gamma^k_j = sigma^m_j d_m xi^k - xi^m d_m sigma^k_j
    - tau d_t sigma^k_j - (1/2) sigma^k_j d_t tau, as an n x m matrix.

    For a W-symmetry candidate the constant antisymmetric B contributes an
    extra -(sigma B)^k_j term.
    """
    _, gam = _lambda_gamma(ito, candidate)
    return tuple(tuple(normalize(e) for e in row) for row in gam)


def lambda_(ito: ItoSystem, candidate):
    """Lambda^i = -[d_t(xi^i - tau f^i) + {f, xi}^i + S^{mk} d2_{mk} xi^i]."""
    lam, _ = _lambda_gamma(ito, candidate)
    return tuple(normalize(e) for e in lam)


def detsys_ode(f, vf: VectorField) -> DeterminingSystem:
    """Deterministic determining equations
    d_t(xi^i - tau f^i) + {f, xi}^i = 0 for dx/dt = f(x, t)."""
    if vf.beta is not None:
        raise ValueError("ODE determining equations take a candidate without beta")
    ctx = vf.context
    x, t = ctx.spatial, ctx.t
    bracket = lie_bracket(tuple(f), vf.xi, x)
    eqs = [(f"ODE[{i + 1}]", sp.diff(vf.xi[i] - vf.tau * f[i], t) + bracket[i])
           for i in range(len(vf.xi))]
    return _pack("ode", eqs)


def _lambda_gamma_system(name, ito, candidate):
    lam, gam = _lambda_gamma(ito, candidate)
    eqs = [(f"Lambda[{i + 1}]", e) for i, e in enumerate(lam)]
    eqs += [(f"Gamma[{i + 1}][{k + 1}]", e)
            for i, row in enumerate(gam) for k, e in enumerate(row)]
    return _pack(name, eqs)


def detsys_spatial(ito: ItoSystem, xi) -> DeterminingSystem:
    """Determining equations for purely spatial symmetries (tau = 0)."""
    vf = VectorField(context=ito.context, tau=0, xi=tuple(xi))
    return _lambda_gamma_system("ito-spatial", ito, vf)


def detsys_projectable(ito: ItoSystem, vf: VectorField) -> DeterminingSystem:
    """Full determining equations in the Lambda = 0, Gamma = 0 form."""
    return _lambda_gamma_system("ito-projectable", ito, vf)


def detsys_w(ito: ItoSystem, ws: WSymmetry) -> DeterminingSystem:
    """Determining equations for W-symmetries: the Lambda family plus the
    B-shifted Gamma family. With B = 0 this equals detsys_projectable."""
    return _lambda_gamma_system("ito-w", ito, ws)


def detsys_fp(fp, vf: VectorField) -> DeterminingSystem:
    """Determining equations for nontrivial projectable symmetries of the
    Fokker-Planck equation; accepts a FokkerPlanck directly or derives one
    from an ItoSystem."""
    if isinstance(fp, ItoSystem):
        fp = fokker_planck_of(fp)
    if vf.beta is None:
        raise ValueError("FP determining equations require a beta component")
    ctx = fp.context
    x, t = ctx.spatial, ctx.t
    n = ctx.n
    A, B, C = fp.a_matrix(), fp.B, fp.C
    tau, xi, beta = vf.tau, vf.xi, vf.beta
    eqs = []
    for i in range(n):
        for k in range(n):
            e = (sp.diff(tau * A[i, k], t)
                 + sum(xi[mm] * sp.diff(A[i, k], x[mm]) for mm in range(n))
                 - sum(A[i, mm] * sp.diff(xi[k], x[mm]) for mm in range(n))
                 - sum(A[mm, k] * sp.diff(xi[i], x[mm]) for mm in range(n)))
            eqs.append((f"FP-A[{i + 1}][{k + 1}]", e))
    for i in range(n):
        e = (sp.diff(tau * B[i], t)
             - (sp.diff(xi[i], t)
                + sum(B[mm] * sp.diff(xi[i], x[mm]) for mm in range(n))
                - sum(xi[mm] * sp.diff(B[i], x[mm]) for mm in range(n)))
             + sum(A[i, k] * sp.diff(beta, x[k]) for k in range(n))
             + sum(A[mm, i] * sp.diff(beta, x[mm]) for mm in range(n))
             - sum(A[mm, k] * sp.diff(xi[i], x[mm], x[k])
                   for mm in range(n) for k in range(n)))
        eqs.append((f"FP-B[{i + 1}]", e))
    e = (sp.diff(tau * C, t) + sp.diff(beta, t)
         + sum(A[i, k] * sp.diff(beta, x[i], x[k]) for i in range(n) for k in range(n))
         + sum(B[i] * sp.diff(beta, x[i]) for i in range(n))
         + sum(xi[mm] * sp.diff(C, x[mm]) for mm in range(n)))
    eqs.append(("FP-C", e))
    return _pack("fokker-planck", eqs)


def detsys_discrete(ito: ItoSystem, dmap: DiscreteMap) -> DeterminingSystem:
    """Determining equations for a finite map y = phi(x,t), z = R w:
    drift family  dphi^i/dx^j f^j + S^{jk} d2_{jk} phi^i + d_t phi^i - f^i(phi, t),
    noise family  (dphi/dx sigma R^T)^i_k - sigma^i_k(phi, t)."""
    ctx = ito.context
    x, t = ctx.spatial, ctx.t
    n, m = ito.n, ito.m
    S = ito.half_diffusion()
    at_phi = {x[j]: dmap.phi[j] for j in range(n)}
    eqs = []
    for i in range(n):
        e = (sum(sp.diff(dmap.phi[i], x[j]) * ito.f[j] for j in range(n))
             + sum(S[j, k] * sp.diff(dmap.phi[i], x[j], x[k])
                   for j in range(n) for k in range(n))
             + sp.diff(dmap.phi[i], t)
             - substitute(ito.f[i], at_phi))
        eqs.append((f"drift[{i + 1}]", e))
    transformed = (sp.Matrix(n, n, lambda i, j: sp.diff(dmap.phi[i], x[j]))
                   * ito.sigma_matrix() * dmap.r_matrix().T)
    for i in range(n):
        for k in range(m):
            e = transformed[i, k] - substitute(ito.sigma[i][k], at_phi)
            eqs.append((f"noise[{i + 1}][{k + 1}]", e))
    return _pack("ito-discrete", eqs)
