"""Periodic chain of coupled growth equations
dx^i = [a (x^{i+1} - 2 x^i + x^{i-1}) + b (x^{i+1} - x^{i-1})^2] dt + dw^i
with indices mod N as an Ito system, and two thin adapters onto the
general engine: the determining system of a linear-in-x continuous
candidate (Lambda/Gamma) and the verdict on a linear discrete map y = F x
with noise mixer R = F (detsys_discrete + check). The system is built in
the context's ring QQ[a, b, x, t] when a and b lie in it, and y = F x
when F is rational. The engine takes both as they are: the residuals
stay in the ring up to the verdict, and no expression is built unless a
reader asks for one (`model._Views`). The continuous adapter forms
Lambda x row by row."""
from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp
from sympy.polys.domains import QQ

from .kernel import Context, _ring_element
from .detgen import DeterminingSystem, detsys_discrete, detsys_projectable
from .model import DiscreteMap, ItoSystem, VectorField, _dot
from .verify import VerificationReport, check

__all__ = [
    "KpzChain", "kpz_ito", "kpz_detsys_continuous", "kpz_check_discrete",
    "site_shift_matrix", "inversion_matrix",
]


@dataclass(frozen=True)
class KpzChain:
    n_sites: int
    alpha: object = None   # diffusion coupling, symbol 'a' when omitted
    beta: object = None    # nonlinearity, symbol 'b' when omitted
    context: Context = field(init=False, default=None)

    def __post_init__(self):
        if self.n_sites < 3:
            raise ValueError("a periodic chain needs at least 3 sites")
        params = {}
        if self.alpha is None:
            params["a"] = "positive"
        if self.beta is None:
            params["b"] = None
        ctx = Context(spatial=tuple(f"x{i + 1}" for i in range(self.n_sites)),
                      params=params,
                      noises=tuple(f"w{i + 1}" for i in range(self.n_sites)))
        object.__setattr__(self, "context", ctx)
        for attr, name in (("alpha", "a"), ("beta", "b")):
            value = getattr(self, attr)
            object.__setattr__(self, attr, ctx.symbol(name) if value is None
                               else sp.sympify(value))


def _wrap(i, n):
    return i % n


def kpz_ito(chain: KpzChain) -> ItoSystem:
    """The chain as an Ito system with unit noise matrix: in the context's
    ring when alpha and beta lie in it, else (a float, a radical) on
    expressions."""
    n = chain.n_sites
    ctx = chain.context
    ring = ctx.ring
    gens = dict(zip(ring.symbols, ring.gens))
    a, b = (gens.get(v) or _ring_element(v, ring)
            for v in (chain.alpha, chain.beta))
    if a is None or b is None:
        a, b, x = chain.alpha, chain.beta, ctx.spatial
        one, zero = sp.Integer(1), sp.Integer(0)
    else:
        x, one, zero = [gens[v] for v in ctx.spatial], ring.one, ring.zero
    f = tuple(
        a * (x[_wrap(i + 1, n)] - 2 * x[i] + x[_wrap(i - 1, n)])
        + b * (x[_wrap(i + 1, n)] - x[_wrap(i - 1, n)]) ** 2
        for i in range(n))
    sigma = tuple(tuple(one if i == k else zero for k in range(n))
                  for i in range(n))
    return ItoSystem(context=ctx, f=f, sigma=sigma, name=f"kpz-{n}")


def kpz_detsys_continuous(chain: KpzChain, tau, Lambda_matrix, alpha_vec,
                          Bmat=None) -> DeterminingSystem:
    """Determining equations for a candidate tau(t) d_t + xi^i d_i with the
    linear ansatz xi = Lambda(t) x + alpha(t), optionally carrying a constant
    antisymmetric noise mixer B: the general Lambda/Gamma system of the
    chain's Ito form. A B that is not constant, antisymmetric and n x n
    raises ValueError."""
    n = chain.n_sites
    Lam = sp.Matrix(Lambda_matrix)
    al = sp.Matrix([sp.sympify(e) for e in alpha_vec])
    if Lam.shape != (n, n) or al.shape != (n, 1):
        raise ValueError("candidate shape does not match the chain size")
    x = chain.context.spatial
    xi = tuple(_dot(row, x) + a for row, a in zip(Lam.tolist(), al))
    B = () if Bmat is None else sp.Matrix(Bmat).tolist()
    ws = VectorField(chain.context, tau=tau, xi=xi, Bmat=B)
    return detsys_projectable(kpz_ito(chain), ws)._replace(
        name="kpz-continuous")


def kpz_check_discrete(chain: KpzChain, F) -> VerificationReport:
    """Verify the linear map y = F x with noise mixer R = F: the general
    discrete determining system of the chain's Ito form, checked. A
    non-orthogonal F raises ValueError, one whose orthogonality the zero
    test cannot decide InconclusiveError."""
    n = chain.n_sites
    F = sp.Matrix(F)
    if F.shape != (n, n):
        raise ValueError("F must match the chain size")
    ctx, entries = chain.context, sorted(F.todok().items())
    # F x from F's nonzero entries, in the context's ring, which the
    # engine takes as it is, when F is rational
    if all(e.is_Rational for _, e in entries):
        gens = dict(zip(ctx.ring.symbols, ctx.ring.gens))
        x, zero = [gens[v] for v in ctx.spatial], ctx.ring.zero
        entries = [(ij, QQ(e.p, e.q)) for ij, e in entries]
    else:
        x, zero = ctx.spatial, sp.Integer(0)
    rows = [[] for _ in range(n)]
    for (i, j), e in entries:
        rows[i].append(x[j] * e)
    phi = tuple(sum(row, zero) for row in rows)
    ito = kpz_ito(chain)
    dmap = DiscreteMap(context=ctx, phi=phi, R=F.tolist())
    return check(detsys_discrete(ito, dmap)._replace(name="kpz-discrete"))


def site_shift_matrix(n):
    """Cyclic shift i -> i+1 (mod n)."""
    F = sp.zeros(n, n)
    for i in range(n):
        F[i, _wrap(i - 1, n)] = 1
    return F


def inversion_matrix(n, m=1):
    """Reflection i -> 2m - i (mod n) about site m."""
    F = sp.zeros(n, n)
    for i in range(n):
        F[i, _wrap(2 * (m - 1) - i, n)] = 1
    return F
