"""Data model for Ito systems, Fokker-Planck equations and symmetry
candidates, plus the structural maps between them.

Sign convention: one internal quantity S := (1/2) sigma sigma^T is used
everywhere. The Fokker-Planck coefficient matrix is A = -S; first-order
transformation laws and determining systems carry +S on second-derivative
terms, which makes the tau = 0 and B = 0 reductions exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import sympy as sp
from sympy.core.cache import cacheit
from sympy.polys.domains import QQ

from .kernel import Context, _ring_element, all_zero, normalize

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
    """dx^i = f^i(x,t) dt + sigma^i_k(x,t) dw^k on R^n with m noise channels.

    f and sigma are converted into the context's ring QQ[params, x, t] once;
    when every entry lies in it, the elements are kept for the
    determining-equation engine, and f and sigma hold their as_expr()."""
    context: Context
    f: tuple
    sigma: tuple
    name: str = ""
    _elements: tuple = field(init=False, default=None, compare=False,
                             repr=False)

    def __post_init__(self):
        ring = self.context.ring
        in_ring, (f, *sigma) = _one_type(ring, [self.f, *self.sigma])
        if in_ring:
            object.__setattr__(self, "_elements", (f, sigma))
        object.__setattr__(self, "f", _exprs(f))
        object.__setattr__(self, "sigma", _matrix(sigma))
        n, m = self.context.n, self.context.m
        if len(self.f) != n:
            raise ValueError(f"expected {n} drift components, got {len(self.f)}")
        if len(self.sigma) != n or any(len(row) != m for row in self.sigma):
            raise ValueError(f"sigma must be {n}x{m}")
        allowed = set(ring.symbols)
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
        return sp.Matrix(self.sigma)

    def half_diffusion(self):
        """S = (1/2) sigma sigma^T (no degeneracy check)."""
        s = self.sigma_matrix()
        return (s * s.T).applyfunc(normalize) / 2

    @cached_property
    def _engine(self):
        """The system side of the determining equations, built once."""
        return _Engine(self)


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
        if not all_zero(self.A[i][j] - self.A[j][i]
                        for i in range(n) for j in range(i + 1, n)):
            raise ValueError("A must be symmetric")

    def _of(self, groups):
        """The coefficients and the entry groups (sequences of expressions)
        converted together, by the rule of `_Engine.of`."""
        ctx, n = self.context, self.context.n
        in_ring, (B, (C,), *rest) = _one_type(
            ctx.ring, [self.B, (self.C,), *self.A, *groups])
        A, groups = rest[:n], rest[n:]
        calc = _Ring(ctx.ring, ctx.spatial, ctx.t) if in_ring else _EXPRS
        x, t = (calc.x, calc.t) if in_ring else (ctx.spatial, ctx.t)
        return _FpCoefficients(calc, x, t, A, B, C), groups


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
        if not all_zero(self.Bmat[p][q] + self.Bmat[q][p]
                        for p in range(m) for q in range(p, m)):
            raise ValueError("B must be antisymmetric")

    def b_matrix(self):
        return sp.Matrix(self.Bmat)


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
        return sp.Matrix(self.R)


# ---------------------------------------------------------------------------
# the Ito generator L = d_t + f^a d_a + S^{ab} d2_{ab}
#
# The formulas below are written once, over two exact coefficient types:
# sympy expressions, differentiated by symbol, and elements of a sparse
# polynomial ring over QQ, differentiated by generator index. They return
# raw sums over the structurally nonzero terms only; their callers
# normalize once, at their output, and a ring element is canonical already.

class _Exprs:
    """Calculus on sympy expressions, the general coefficient type; a
    variable is a symbol."""
    zero, one, half = sp.Integer(0), sp.Integer(1), sp.Rational(1, 2)

    @staticmethod
    @cacheit
    def d(e, v):
        """d e / d v, without calling the differentiator when e is free of v;
        kept in sympy's cache, since checks of one system differentiate the
        same entries again (a pass of the manifest checks calls sympy.diff
        95 times with the cache and 183 times without it)."""
        return sp.diff(e, v) if e.has(v) else sp.Integer(0)

    @staticmethod
    def add(terms):
        return sp.Add(*terms)

    @staticmethod
    def substitution(x, phi):
        """e -> e(phi) for coefficients of x and t: replacing each x^j by
        phi^j atom by atom is the exact simultaneous substitution."""
        at = dict(zip(x, phi))
        return lambda e: e.xreplace(at)

    def gradient(self, e, x):
        return [self.d(e, v) for v in x]

    def dot(self, u, v):
        return self.add([a * b for a, b in zip(u, v) if a != 0 and b != 0])

    def second_order(self, entries, grad, x):
        """M^{ab} d2_{ab} u over the nonzero entries (a, b, M^{ab}) of M,
        from the gradient `grad` of u."""
        return self.add([w * self.d(grad[a], x[b]) for a, b, w in entries
                         if grad[a] != 0])

    def noise_image(self, grad, sigma):
        """(grad u) . sigma: the noise coefficients d_a u sigma^a_j of
        u(x, t) for each column j of the n x m nested sequence sigma."""
        return [self.dot(grad, col) for col in zip(*sigma)]


_EXPRS = _Exprs()
# the expression calculus as plain functions, for the structural maps
_d, _gradient, _dot = _EXPRS.d, _EXPRS.gradient, _EXPRS.dot


def _nonzero(M):
    """The (a, b, M^{ab}) of the nonzero entries of M, nested rows."""
    return [(a, b, e) for a, row in enumerate(M) for b, e in enumerate(row)
            if e != 0]


class _Ring(_Exprs):
    """The same calculus in a sparse polynomial ring, where +, *, d/dv and
    == 0 are exact and canonical; a variable is a generator index. The
    ring is QQ[params, x, t] of a context (`Context.ring`, whose elements
    leave through as_expr() in `normalize`d form), or, for the solver,
    QQ[params, x, t, E_1..E_k] or EX[x, t, E_1..E_k] with E_k standing for
    exp(c_k t), c_k free of x and t, under d_t E_k = c_k E_k."""

    def __init__(self, ring, x, t, rates=()):
        """`ring`'s last len(rates) generators are the E_k, rates[k] is c_k
        as an element of `ring` free of them, and x and t are symbols."""
        self.ring = ring
        self.zero, self.one, self.half = ring.zero, ring.one, ring(QQ(1, 2))
        index = {s: i for i, s in enumerate(ring.symbols)}
        self.x, self.t = tuple(index[v] for v in x), index[t]
        self.rates = list(enumerate(rates, ring.ngens - len(rates)))

    def d(self, e, i):
        if e.is_ground:
            return self.zero
        de = e.diff(i)
        if self.rates and i == self.t:
            # c_k times the Euler operator E_k d/dE_k
            for k, c in self.rates:
                scaled = {m: v * m[k] for m, v in e.items() if m[k]}
                if scaled:
                    de += c * e.new(scaled)
        return de

    def gradient(self, e, x):
        return [self.zero] * len(x) if e.is_ground else [e.diff(i) for i in x]

    def add(self, terms):
        return sum(terms, self.zero)

    def substitution(self, x, phi):
        # compose substitutes simultaneously
        pairs = [(self.ring.gens[i], p) for i, p in zip(x, phi)]
        return lambda e: e if e.is_ground else e.compose(pairs)

    def half_diffusion(self, sigma):
        """The nonzero entries (a, b, S^{ab}) of S = (1/2) sigma sigma^T in
        row-major order, summed over sigma's nonzero pattern only."""
        S = {}
        for col in zip(*sigma):
            rows = [(a, e) for a, e in enumerate(col) if e]
            for a, u in rows:
                for b, v in rows:
                    S[a, b] = S.get((a, b), self.zero) + u * v
        return [(a, b, self.half * w) for (a, b), w in sorted(S.items()) if w]


@dataclass(frozen=True)
class _Coefficients:
    """An Ito system in one coefficient type: the calculus `calc` of that
    type, the variables x and t, f, sigma and the nonzero entries
    (a, b, S^{ab}) of S = (1/2) sigma sigma^T."""
    calc: _Exprs
    x: tuple
    t: object
    f: list
    sigma: list
    S: list

    def L(self, u, grad):
        """L u = d_t u + f^a d_a u + S^{ab} d2_{ab} u from (u, grad u)."""
        c = self.calc
        return (c.d(u, self.t) + c.dot(self.f, grad)
                + c.second_order(self.S, grad, self.x))

    @cached_property
    def derivatives(self):
        """The x-gradients and t-derivatives of f and of sigma."""
        c, x, t = self.calc, self.x, self.t
        return ([c.gradient(e, x) for e in self.f], [c.d(e, t) for e in self.f],
                [[c.gradient(e, x) for e in row] for row in self.sigma],
                [[c.d(e, t) for e in row] for row in self.sigma])

    def image(self, phi, R):
        """Raw drift L phi and raw noise (dphi/dx) sigma R^T of
        y = phi(x, t), written in x."""
        c = self.calc
        sig = [[c.dot(row, r) for r in R] for row in self.sigma]
        drift, noise = [], []
        for p in phi:
            grad = c.gradient(p, self.x)
            drift.append(self.L(p, grad))
            noise.append(c.noise_image(grad, sig))
        return drift, noise


@dataclass(frozen=True)
class _FpCoefficients:
    """A Fokker-Planck equation in one coefficient type: the calculus `calc`
    of that type, the variables x and t, A (nested rows), B and C."""
    calc: _Exprs
    x: tuple
    t: object
    A: list
    B: list
    C: object

    def L(self, u, grad):
        """d_t u + A^{ab} d2_{ab} u + B^a d_a u from (u, grad u): the
        Fokker-Planck operator without its C u term."""
        c = self.calc
        return (c.d(u, self.t) + c.second_order(_nonzero(self.A), grad, self.x)
                + c.dot(self.B, grad))


def _one_type(ring, groups):
    """Whether the entry groups lie in `ring`, and the groups as its
    elements when every entry does (and ring is not None), else as sympy
    expressions."""
    if ring is not None:
        converted = [[_ring_element(e, ring) for e in g] for g in groups]
        if all(p is not None for g in converted for p in g):
            return True, converted
    return False, [[sp.sympify(e) for e in g] for g in groups]


class _Engine:
    """The coefficients of an Ito system in the ring when f and sigma lie in
    QQ[params, x, t] (from the elements the system keeps); the expression
    form is built on first need."""

    def __init__(self, ito: ItoSystem):
        self.ito = ito
        self.ring = None
        if ito._elements is not None:
            ctx, (f, sigma) = ito.context, ito._elements
            calc = _Ring(ctx.ring, ctx.spatial, ctx.t)
            self.ring = _Coefficients(calc, calc.x, calc.t, f, sigma,
                                      calc.half_diffusion(sigma))

    @cached_property
    def exprs(self):
        ctx = self.ito.context
        return _Coefficients(_EXPRS, ctx.spatial, ctx.t, self.ito.f,
                             self.ito.sigma,
                             _nonzero(self.ito.half_diffusion().tolist()))

    def of(self, groups):
        """The coefficients and the candidate's entry groups (sequences of
        expressions) in one type: the ring when every entry lies in it too,
        else expressions."""
        in_ring, groups = _one_type(
            None if self.ring is None else self.ito.context.ring, groups)
        return self.ring if in_ring else self.exprs, groups


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
    inverse = () if inverse is None else inverse
    c, (phi, inverse, *R) = ito._engine.of([dmap.phi, inverse, *dmap.R])
    drift, noise = c.image(phi, R)
    if inverse:
        at = c.calc.substitution(c.x, inverse)
        drift = [at(e) for e in drift]
        noise = [[at(e) for e in row] for row in noise]
    return ItoSystem(context=ito.context, f=drift, sigma=noise,
                     name=ito.name and f"{ito.name}*")
