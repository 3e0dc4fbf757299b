"""Data model for Ito systems, Fokker-Planck equations and symmetry
candidates, plus the structural maps between them.

Sign convention: one internal quantity S := (1/2) sigma sigma^T is used
everywhere. The Fokker-Planck coefficient matrix is A = -S; first-order
transformation laws and determining systems carry +S on second-derivative
terms, which makes the tau = 0 and B = 0 reductions exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from .kernel import Context, all_zero, normalize

__all__ = [
    "DegeneracyError",
    "ItoSystem", "FokkerPlanck", "VectorField", "WSymmetry", "DiscreteMap",
    "diffusion_matrix", "fokker_planck_of", "same_fp", "ito_to_stratonovich",
    "lie_bracket", "transform_ito_first_order", "apply_discrete",
]


class DegeneracyError(ValueError):
    """sigma sigma^T vanishes identically."""


def _exprs(seq):
    return tuple(normalize(e) for e in seq)


def _matrix(rows):
    return tuple(tuple(normalize(e) for e in row) for row in rows)


def _allowed_symbols(ctx: Context):
    return set(ctx.spatial) | {ctx.t} | set(ctx.params.values())


def _set_tau_xi(candidate):
    """Normalize tau and xi of a generator in place: xi defaults to zero and
    needs one entry per spatial variable, and tau must be free of them."""
    ctx = candidate.context
    object.__setattr__(candidate, "tau", normalize(candidate.tau))
    object.__setattr__(candidate, "xi", _exprs(candidate.xi or (0,) * ctx.n))
    if len(candidate.xi) != ctx.n:
        raise ValueError(f"expected {ctx.n} xi components")
    if sp.sympify(candidate.tau).free_symbols & set(ctx.spatial):
        raise ValueError("tau must not depend on the spatial variables")


@dataclass(frozen=True)
class ItoSystem:
    """dx^i = f^i(x,t) dt + sigma^i_k(x,t) dw^k on R^n with m noise channels."""
    context: Context
    f: tuple
    sigma: tuple
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "f", _exprs(self.f))
        object.__setattr__(self, "sigma", _matrix(self.sigma))
        n, m = self.context.n, self.context.m
        if len(self.f) != n:
            raise ValueError(f"expected {n} drift components, got {len(self.f)}")
        if len(self.sigma) != n or any(len(row) != m for row in self.sigma):
            raise ValueError(f"sigma must be {n}x{m}")
        allowed = _allowed_symbols(self.context)
        for e in (*self.f, *(x for row in self.sigma for x in row)):
            extra = sp.sympify(e).free_symbols - allowed
            if extra:
                names = ", ".join(sorted(s.name for s in extra))
                raise ValueError(f"coefficient depends on non-(x,t) symbols: {names}")

    @property
    def n(self):
        return self.context.n

    @property
    def m(self):
        return self.context.m

    def sigma_matrix(self):
        return sp.Matrix(self.n, self.m, lambda i, k: self.sigma[i][k])

    def half_diffusion(self):
        """S = (1/2) sigma sigma^T (no degeneracy check)."""
        s = self.sigma_matrix()
        return (s * s.T).applyfunc(normalize) / 2


@dataclass(frozen=True)
class FokkerPlanck:
    """Coefficients of u_t + A^{ij} d2_{ij} u + B^i d_i u + C u = 0."""
    context: Context
    A: tuple
    B: tuple
    C: object

    def __post_init__(self):
        object.__setattr__(self, "A", _matrix(self.A))
        object.__setattr__(self, "B", _exprs(self.B))
        object.__setattr__(self, "C", normalize(self.C))
        n = self.context.n
        if len(self.A) != n or any(len(row) != n for row in self.A):
            raise ValueError(f"A must be {n}x{n}")
        if len(self.B) != n:
            raise ValueError(f"expected {n} first-order coefficients")
        for i in range(n):
            for j in range(i + 1, n):
                if normalize(self.A[i][j] - self.A[j][i]) != 0:
                    raise ValueError("A must be symmetric")

    def a_matrix(self):
        n = self.context.n
        return sp.Matrix(n, n, lambda i, j: self.A[i][j])


@dataclass(frozen=True)
class VectorField:
    """Projectable generator tau(t) d_t + xi^i(x,t) d_i, optionally extended
    by beta(x,t) u d_u."""
    context: Context
    tau: object = 0
    xi: tuple = ()
    beta: object = None
    name: str = ""

    def __post_init__(self):
        _set_tau_xi(self)
        if self.beta is not None:
            object.__setattr__(self, "beta", normalize(self.beta))


def _check_constant_matrix(ctx, mat, what):
    nonconst = {ctx.t, *ctx.spatial}
    for row in mat:
        for e in row:
            if sp.sympify(e).free_symbols & nonconst:
                raise ValueError(f"{what} must be constant in x and t")


@dataclass(frozen=True)
class WSymmetry:
    """Generator acting also on the Wiener process: w -> w + eps B w with
    B constant antisymmetric."""
    context: Context
    tau: object = 0
    xi: tuple = ()
    Bmat: tuple = ()

    def __post_init__(self):
        _set_tau_xi(self)
        m = self.context.m
        B = self.Bmat if self.Bmat else tuple((sp.Integer(0),) * m for _ in range(m))
        object.__setattr__(self, "Bmat", _matrix(B))
        if len(self.Bmat) != m or any(len(row) != m for row in self.Bmat):
            raise ValueError(f"B must be {m}x{m}")
        _check_constant_matrix(self.context, self.Bmat, "B")
        for p in range(m):
            for q in range(m):
                if normalize(self.Bmat[p][q] + self.Bmat[q][p]) != 0:
                    raise ValueError("B must be antisymmetric")

    def b_matrix(self):
        m = self.context.m
        return sp.Matrix(m, m, lambda p, q: self.Bmat[p][q])


@dataclass(frozen=True)
class DiscreteMap:
    """Finite change of coordinates y^i = phi^i(x,t) with new noise
    z = R w, R constant orthogonal."""
    context: Context
    phi: tuple
    R: tuple

    def __post_init__(self):
        object.__setattr__(self, "phi", _exprs(self.phi))
        object.__setattr__(self, "R", _matrix(self.R))
        n, m = self.context.n, self.context.m
        if len(self.phi) != n:
            raise ValueError(f"expected {n} map components")
        if len(self.R) != m or any(len(row) != m for row in self.R):
            raise ValueError(f"R must be {m}x{m}")
        _check_constant_matrix(self.context, self.R, "R")
        r = self.r_matrix()
        if not all_zero(r * r.T - sp.eye(m)):
            raise ValueError("R must be orthogonal")

    def r_matrix(self):
        m = self.context.m
        return sp.Matrix(m, m, lambda p, q: self.R[p][q])


# ---------------------------------------------------------------------------
# the Ito generator L = d_t + f^a d_a + S^{ab} d2_{ab}
#
# The helpers below return raw, unnormalized sums over the structurally
# nonzero terms only; their callers normalize once, at their output.

def _d(e, v):
    """d e / d v, without calling the differentiator when e is free of v."""
    return sp.diff(e, v) if e.has(v) else sp.Integer(0)


def _gradient(e, x):
    return [_d(e, v) for v in x]


def _dot(u, v):
    return sp.Add(*(a * b for a, b in zip(u, v) if a != 0 and b != 0))


def _nonzero(M):
    """The (a, b, M[a, b]) of the nonzero entries of a square matrix."""
    return [(a, b, M[a, b]) for a in range(M.rows) for b in range(M.cols)
            if M[a, b] != 0]


def _second_order(entries, grad, x):
    """M^{ab} d2_{ab} u over the nonzero entries (a, b, M^{ab}) of M, from
    the gradient `grad` of u."""
    return sp.Add(*(w * _d(grad[a], x[b]) for a, b, w in entries
                    if grad[a] != 0))


def _noise_image(grad, sigma):
    """(grad u) . sigma: the noise coefficients d_a u sigma^a_j of u(x, t)
    for each column j of the n x m nested sequence sigma."""
    return [_dot(grad, col) for col in zip(*sigma)]


def _generator(ito: ItoSystem):
    """L u = d_t u + f^a d_a u + S^{ab} d2_{ab} u of `ito` as a function of
    (u, grad u); S and its nonzero pattern are formed once."""
    x, t, f = ito.context.spatial, ito.context.t, ito.f
    S = _nonzero(ito.half_diffusion())

    def L(u, grad):
        return _d(u, t) + _dot(f, grad) + _second_order(S, grad, x)
    return L


def _discrete_image(ito: ItoSystem, dmap: DiscreteMap):
    """Raw drift L phi and raw noise (dphi/dx) sigma R^T of y = phi(x, t),
    written in x."""
    L = _generator(ito)
    sig = (ito.sigma_matrix() * dmap.r_matrix().T).tolist()
    drift, noise = [], []
    for phi in dmap.phi:
        grad = _gradient(phi, ito.context.spatial)
        drift.append(L(phi, grad))
        noise.append(_noise_image(grad, sig))
    return drift, noise


# ---------------------------------------------------------------------------
# structural maps

def diffusion_matrix(ito: ItoSystem):
    """A = (1/2) sigma sigma^T as an n x n tuple matrix; raises
    DegeneracyError when it vanishes identically and InconclusiveError when
    the zero test cannot decide whether it does."""
    S = ito.half_diffusion()
    if all_zero(S):
        raise DegeneracyError("sigma sigma^T vanishes identically")
    return tuple(map(tuple, S.tolist()))


def fokker_planck_of(ito: ItoSystem) -> FokkerPlanck:
    """Coefficients of the associated Fokker-Planck equation:
    A = -(1/2) sigma sigma^T, B^i = f^i + 2 d_j A^{ij},
    C = d_i f^i + d2_{ij} A^{ij}."""
    A = tuple(tuple(-e for e in row) for row in diffusion_matrix(ito))
    x = ito.context.spatial
    # d_j A^{ij}, so that d2_{ij} A^{ij} = d_i (d_j A^{ij})
    div = [sp.Add(*(_d(a, v) for a, v in zip(row, x))) for row in A]
    B = tuple(f + 2 * d for f, d in zip(ito.f, div))
    C = sp.Add(*(_d(f + d, v) for f, d, v in zip(ito.f, div, x)))
    return FokkerPlanck(context=ito.context, A=A, B=B, C=C)


def same_fp(sigma1, sigma2) -> bool:
    """True iff the two diffusion matrices generate the same Fokker-Planck
    equation, i.e. (1/2) s1 s1^T == (1/2) s2 s2^T entry-wise; raises
    InconclusiveError when the zero test cannot decide."""
    s1, s2 = sp.Matrix(sigma1), sp.Matrix(sigma2)
    if s1.rows != s2.rows or s1.cols != s2.cols:
        raise ValueError("diffusion matrices must have equal shapes")
    return all_zero(s1 * s1.T - s2 * s2.T)


def ito_to_stratonovich(ito: ItoSystem):
    """Drift of the equivalent Stratonovich equation:
    b^i = f^i - (1/2) sigma^j_k d_j sigma^i_k (summed over j, k)."""
    x, cols = ito.context.spatial, tuple(zip(*ito.sigma))
    return tuple(normalize(f - sp.Rational(1, 2) * sp.Add(
        *(_dot(col, _gradient(s, x)) for s, col in zip(row, cols))))
        for f, row in zip(ito.f, ito.sigma))


def lie_bracket(f, xi, x):
    """{f, xi}^i = f^j d_j xi^i - xi^j d_j f^i."""
    if len(f) != len(xi):
        raise ValueError("component sequences must have equal length")
    f, xi = [sp.sympify(e) for e in f], [sp.sympify(e) for e in xi]
    return tuple(normalize(_dot(f, _gradient(b, x)) - _dot(xi, _gradient(a, x)))
                 for a, b in zip(f, xi))


def transform_ito_first_order(ito: ItoSystem, xi):
    """O(eps) coefficients of the near-identity map y = x + eps xi(x,t):
    delta_f^i = d_t xi^i + {f, xi}^i + S^{jk} d2_{jk} xi^i and
    delta_sigma^i_k = sigma^j_k d_j xi^i - xi^j d_j sigma^i_k."""
    ctx = ito.context
    x, t = ctx.spatial, ctx.t
    n, m = ito.n, ito.m
    S = ito.half_diffusion()
    bracket = lie_bracket(ito.f, xi, x)
    delta_f = []
    for i in range(n):
        second = sum(2 * S[j, k] * sp.diff(xi[i], x[j], x[k])
                     for j in range(n) for k in range(n)) / 2
        delta_f.append(normalize(sp.diff(xi[i], t) + bracket[i] + second))
    delta_sigma = []
    for i in range(n):
        row = []
        for k in range(m):
            row.append(normalize(
                sum(ito.sigma[j][k] * sp.diff(xi[i], x[j]) for j in range(n))
                - sum(xi[j] * sp.diff(ito.sigma[i][k], x[j]) for j in range(n))))
        delta_sigma.append(tuple(row))
    return tuple(delta_f), tuple(delta_sigma)


def apply_discrete(ito: ItoSystem, dmap: DiscreteMap,
                   inverse=None) -> ItoSystem:
    """Ito system obeyed by y = phi(x, t) with new noise z = R w.

    Coefficients come out written in the original x unless `inverse`
    (expressions for x in terms of the new coordinates, reusing the same
    symbols) is supplied.
    """
    drift, noise = _discrete_image(ito, dmap)
    if inverse is not None:
        sub = dict(zip(ito.context.spatial, inverse))
        drift = [e.subs(sub, simultaneous=True) for e in drift]
        noise = [[e.subs(sub, simultaneous=True) for e in row] for row in noise]
    return ItoSystem(context=ito.context, f=drift, sigma=noise,
                     name=ito.name and f"{ito.name}*")
