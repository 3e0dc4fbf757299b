"""Periodic chain of coupled growth equations
dx^i = [a (x^{i+1} - 2 x^i + x^{i-1}) + b (x^{i+1} - x^{i-1})^2] dt + dw^i
with indices mod N, its tensor form f^i = M^i_j x^j + G^i_{jk} x^j x^k,
the general determining system for linear-in-x symmetry candidates and
the chain-specific conditions for linear discrete maps."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import sympy as sp

from .kernel import Context, all_zero
from .detgen import DeterminingSystem, detsys_w
from .model import ItoSystem, WSymmetry

__all__ = [
    "KpzChain", "KpzTensors", "kpz_ito", "kpz_tensors",
    "kpz_detsys_continuous", "kpz_check_discrete",
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
        if self.alpha is None:
            object.__setattr__(self, "alpha", ctx.symbol("a"))
        else:
            object.__setattr__(self, "alpha", sp.sympify(self.alpha))
        if self.beta is None:
            object.__setattr__(self, "beta", ctx.symbol("b"))
        else:
            object.__setattr__(self, "beta", sp.sympify(self.beta))


@dataclass(frozen=True)
class KpzTensors:
    M: sp.Matrix        # linear part, N x N
    G: tuple            # quadratic part G[i][j][k], symmetric in (j, k)


def _wrap(i, n):
    return i % n


def kpz_tensors(chain: KpzChain) -> KpzTensors:
    """f^i = M^i_j x^j + G^i_{jk} x^j x^k with
    M = a * (periodic discrete Laplacian) and
    G^i_{jk} = b d^i_j d^i_k, d^i_j = delta_{j,i+1} - delta_{j,i-1}."""
    n = chain.n_sites
    a, b = chain.alpha, chain.beta
    M = sp.zeros(n, n)
    for i in range(n):
        M[i, _wrap(i + 1, n)] += a
        M[i, i] += -2 * a
        M[i, _wrap(i - 1, n)] += a
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        d[i][_wrap(i + 1, n)] += 1
        d[i][_wrap(i - 1, n)] -= 1
    G = tuple(tuple(tuple(b * d[i][j] * d[i][k] for k in range(n))
                    for j in range(n)) for i in range(n))
    return KpzTensors(M=M, G=G)


def kpz_ito(chain: KpzChain) -> ItoSystem:
    """The chain as an Ito system with unit noise matrix."""
    n = chain.n_sites
    ctx = chain.context
    x = ctx.spatial
    a, b = chain.alpha, chain.beta
    f = tuple(
        a * (x[_wrap(i + 1, n)] - 2 * x[i] + x[_wrap(i - 1, n)])
        + b * (x[_wrap(i + 1, n)] - x[_wrap(i - 1, n)]) ** 2
        for i in range(n))
    sigma = tuple(tuple(sp.Integer(1) if i == k else sp.Integer(0)
                        for k in range(n)) for i in range(n))
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
    xi = Lam * sp.Matrix(chain.context.spatial) + al
    B = () if Bmat is None else sp.Matrix(Bmat).tolist()
    ws = WSymmetry(chain.context, tau=tau, xi=tuple(xi), Bmat=B)
    return replace(detsys_w(kpz_ito(chain), ws), name="kpz-continuous")


@dataclass(frozen=True)
class KpzDiscreteReport:
    commutes_with_linear: bool
    preserves_quadratic: bool
    orthogonal: bool

    @property
    def is_symmetry(self):
        return (self.commutes_with_linear and self.preserves_quadratic
                and self.orthogonal)

    def to_dict(self):
        return {
            "schema": 1,
            "commutes_with_linear": self.commutes_with_linear,
            "preserves_quadratic": self.preserves_quadratic,
            "orthogonal": self.orthogonal,
            "verdict": "symmetry" if self.is_symmetry else "not_symmetry",
        }


def kpz_check_discrete(chain: KpzChain, F) -> KpzDiscreteReport:
    """Check the linear map y = F x (with noise mixer R = F, which must be
    orthogonal): requires [F, M] = 0 and F^i_m G^m_{jk} = G^i_{mn} F^m_j F^n_k.
    Raises InconclusiveError when an undecided entry leaves a condition
    open."""
    n = chain.n_sites
    F = sp.Matrix(F)
    if F.shape != (n, n):
        raise ValueError("F must match the chain size")
    ten = kpz_tensors(chain)
    M, G = ten.M, ten.G

    comm = all_zero(sp.expand(F * M - M * F))
    # the quadratic tensor is sparse (a handful of stencil entries per
    # site), so accumulate both sides over its nonzero entries only
    nonzero = [(i, j, k) for i in range(n) for j in range(n)
               for k in range(n) if G[i][j][k] != 0]
    lhs = {}
    rhs = {}
    for m, j, k in nonzero:
        val = G[m][j][k]
        for i in range(n):
            if F[i, m] != 0:
                lhs[(i, j, k)] = lhs.get((i, j, k), 0) + F[i, m] * val
    for i, m1, m2 in nonzero:
        val = G[i][m1][m2]
        cols1 = [j for j in range(n) if F[m1, j] != 0]
        cols2 = [k for k in range(n) if F[m2, k] != 0]
        for j in cols1:
            for k in cols2:
                rhs[(i, j, k)] = rhs.get((i, j, k), 0) + val * F[m1, j] * F[m2, k]
    quad_entries = [sp.expand(lhs.get(key, 0) - rhs.get(key, 0))
                    for key in set(lhs) | set(rhs)]
    quad = all_zero(quad_entries)
    orth = all_zero(sp.expand(F * F.T - sp.eye(n)))
    return KpzDiscreteReport(commutes_with_linear=comm,
                             preserves_quadratic=quad, orthogonal=orth)


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
