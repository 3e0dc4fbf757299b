"""Determining-equation systems, emitted as raw residual expressions
required to vanish identically in (x, t).

Every family is expressed through S = (1/2) sigma sigma^T. One builder,
`detsys_projectable`, gives the Lambda/Gamma family of every continuous
generator: a noise mixer B (`Bmat`) adds -(sigma B) to Gamma and names
the system ito-w, so B = 0 gives the projectable equations, equation by
equation, and tau = 0 the spatial ones.

Every family is computed in one of two coefficient types, chosen from
the input alone: the exact domain of `kernel._convert` (QQ[params, x, t]
with sqrt(p) of positive parameters, the inverses of nonzero parameters,
sqrt(n) of each prime n of an integer radical and exp(c t) as generators)
when the system's coefficients and every candidate entry lie in it, and
sympy expressions otherwise. Each residual leaves through `leave`, which
applies the domain's relations. An element of the context's ring, which
`leave` returns as it is, stays in the ring: the zero test in
`verify.check` decides it by truthiness, and its expression is built only
when `DeterminingSystem.equations` or the report is read. Any other
residual is normalized once, and the zero test decides a residual of the
domain exactly and finds any other's normal form in sympy's cache
(`kernel._normalize_loop`). Each `ItoSystem` converts its coefficients
once, and once more for each wider domain a candidate needs; every
builder here, `model.apply_discrete` and the ansatz solver read them
(`ItoSystem._of`), and the Fokker-Planck family reads the A, B and C
that those coefficients compute once per domain, after
`model.fokker_planck_of` has decided degeneracy. The ODE family is minus
the Lambda family of the system with zero noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import sympy as sp
from sympy.polys.rings import PolyElement

from .kernel import normalize
from .model import (DiscreteMap, ItoSystem, VectorField, _Views,
                    fokker_planck_of)

__all__ = [
    "DeterminingSystem", "detsys_ode", "detsys_projectable", "detsys_fp",
    "detsys_discrete",
]


@dataclass(frozen=True)
class DeterminingSystem(_Views):
    """Named residuals that must all vanish. A residual is stored in
    `normalize`d form (the detsys_* builders normalize it once) or, when
    it is an element of a ring, as it is: then `equations` is read as the
    residuals' expressions, built on the first read (`model._Views`).
    `verify.check` decides each residual as stored with the public
    `zero_verdict` and reports it as stored."""
    name: str
    equations: tuple  # of (label, expr) pairs
    free_unknowns: tuple = ()

    def __post_init__(self):
        if any(isinstance(e, PolyElement) for _, e in self.equations):
            self._keep("equations", tuple(self.equations))

    def labels(self):
        return tuple(label for label, _ in self._stored("equations"))

    def residuals(self):
        return tuple(e for _, e in self.equations)


def _unknown_functions(exprs):
    funcs = set()
    for e in exprs:
        for f in sp.sympify(e).atoms(sp.core.function.AppliedUndef):
            funcs.add(f.func)
    return tuple(sorted(funcs, key=lambda f: f.__name__))


def _pack(name, equations):
    # a ring element is kept as it is; over QQ it holds no opaque function
    eqs = tuple((label, e if isinstance(e, PolyElement) else normalize(e))
                for label, e in equations)
    return DeterminingSystem(name=name, equations=eqs, free_unknowns=(
        _unknown_functions(e for _, e in eqs
                           if not isinstance(e, PolyElement))))


def _lambda_gamma(ito: ItoSystem, g: VectorField):
    """Raw (Lambda, Gamma) of the generator g, its noise mixer included: n
    Lambda entries and n rows of m Gamma entries, linear in g, out of the
    engine (`leave`), to be normalized."""
    # B's columns, read once; a zero B adds no term
    B = g.Bmat or ()
    cols = [] if all(e == 0 for row in B for e in row) else list(zip(*B))
    c, ((tau,), xi, *cols) = ito._of([(g.tau,), g.xi, *cols])
    lam, gam = _lambda_gamma_of(c, tau, xi, cols)
    return ([c.calc.leave(e) for e in lam],
            [[c.calc.leave(e) for e in row] for row in gam])


def _lambda_gamma_of(c, tau, xi, B):
    """Raw (Lambda, Gamma) of the candidate (tau, xi, B) over the
    coefficients c, with B the list of the noise mixer's columns (empty for
    no mixer).
    Each candidate is differentiated once, into the Jacobian of xi, and
    only structurally nonzero terms are summed."""
    calc, x, t, f, sigma = c.calc, c.x, c.t, c.f, c.sigma
    df, dt_f, dsigma, dt_sigma = c.derivatives
    dtau = calc.d(tau, t)
    jac = [calc.gradient(e, x) for e in xi]
    # Lambda^i = -[L xi^i - d_t(tau f^i) - xi^a d_a f^i]
    lam = [-(c.L(xi[i], jac[i]) - dtau * f[i] - tau * dt_f[i]
             - calc.dot(xi, df[i])) for i in range(len(f))]
    # Gamma^k_j = sigma^a_j d_a xi^k - xi^a d_a sigma^k_j
    #             - tau d_t sigma^k_j - (1/2) sigma^k_j d_t tau - (sigma B)^k_j
    gam = []
    for k, sig in enumerate(sigma):
        row = calc.noise_image(jac[k], sigma)
        gam.append([row[j] - calc.dot(xi, dsigma[k][j]) - tau * dt_sigma[k][j]
                    - calc.half * sig[j] * dtau
                    - (calc.dot(sig, B[j]) if B else 0)
                    for j in range(len(sig))])
    return lam, gam


def detsys_ode(f, vf: VectorField) -> DeterminingSystem:
    """Deterministic determining equations
    d_t(xi^i - tau f^i) + {f, xi}^i = 0 for dx/dt = f(x, t): minus the
    Lambda family of the Ito system with drift f and zero noise."""
    if vf.beta is not None:
        raise ValueError("ODE determining equations take a candidate without beta")
    ctx = vf.context
    ito = ItoSystem(ctx, f=tuple(f), sigma=((0,) * ctx.m,) * ctx.n)
    lam, _ = _lambda_gamma(ito, vf)
    return _pack("ode", [(f"ODE[{i + 1}]", -e) for i, e in enumerate(lam)])


def detsys_projectable(ito: ItoSystem, vf: VectorField) -> DeterminingSystem:
    """Full determining equations in the Lambda = 0, Gamma = 0 form, named
    ito-w for a generator with a noise mixer B (`Bmat`, whose Gamma is
    B-shifted) and ito-projectable otherwise."""
    lam, gam = _lambda_gamma(ito, vf)
    eqs = [(f"Lambda[{i + 1}]", e) for i, e in enumerate(lam)]
    eqs += [(f"Gamma[{i + 1}][{k + 1}]", e)
            for i, row in enumerate(gam) for k, e in enumerate(row)]
    return _pack("ito-projectable" if vf.Bmat is None else "ito-w", eqs)


def detsys_fp(ito: ItoSystem, vf: VectorField) -> DeterminingSystem:
    """Determining equations for nontrivial projectable symmetries of the
    Fokker-Planck equation of the system, with A, B and C computed from its
    coefficients; in the ring when they and every candidate entry lie in it."""
    if vf.beta is None:
        raise ValueError("FP determining equations require a beta component")
    fokker_planck_of(ito)
    c, ((tau, beta), xi) = ito._of([(vf.tau, vf.beta), vf.xi])
    # A = -S is symmetric
    calc, x, t, (A, B, C) = c.calc, c.x, c.t, c.fokker_planck
    jac = [calc.gradient(e, x) for e in xi]
    grad_beta = calc.gradient(beta, x)

    def moved(e):
        """d_t(tau e) + xi^a d_a e for a coefficient e."""
        return calc.d(tau * e, t) + calc.dot(xi, calc.gradient(e, x))
    eqs = [(f"FP-A[{i + 1}][{k + 1}]", moved(a) - calc.dot(A[i], jac[k])
            - calc.dot(A[k], jac[i]))
           for i, row in enumerate(A) for k, a in enumerate(row)]
    eqs += [(f"FP-B[{i + 1}]", moved(b) + calc.dot(A[i], grad_beta)
             + calc.dot(A[i], grad_beta) - c.fp_L(xi[i], jac[i]))
            for i, b in enumerate(B)]
    eqs.append(("FP-C", moved(C) + c.fp_L(beta, grad_beta)))
    return _pack("fokker-planck", [(label, calc.leave(e)) for label, e in eqs])


def detsys_discrete(ito: ItoSystem, dmap: DiscreteMap) -> DeterminingSystem:
    """Determining equations for a finite map y = phi(x,t), z = R w:
    drift family  dphi^i/dx^j f^j + S^{jk} d2_{jk} phi^i + d_t phi^i - f^i(phi, t),
    noise family  (dphi/dx sigma R^T)^i_k - sigma^i_k(phi, t)."""
    c, (phi, *R) = ito._of([dmap._stored("phi"), *dmap.R])
    return _pack("ito-discrete", _discrete_equations(c, phi, R))


def _discrete_equations(c, phi, R):
    """Labelled raw residuals of the map (phi, R) out of the engine c."""
    drift, noise = c.image(phi, R)
    at_phi, leave = c.calc.substitution(c.x, phi), c.calc.leave
    eqs = [(f"drift[{i + 1}]", leave(e - at_phi(f)))
           for i, (e, f) in enumerate(zip(drift, c.f))]
    eqs += [(f"noise[{i + 1}][{k + 1}]", leave(e - at_phi(sig)))
            for i, (row, sig_row) in enumerate(zip(noise, c.sigma))
            for k, (e, sig) in enumerate(zip(row, sig_row))]
    return eqs
