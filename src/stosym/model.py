"""Data model for Ito systems, Fokker-Planck equations and symmetry
candidates, plus the structural maps between them.

Sign convention: one internal quantity S := (1/2) sigma sigma^T is used
everywhere. The Fokker-Planck coefficient matrix is A = -S; first-order
transformation laws and determining systems carry +S on second-derivative
terms, which makes the tau = 0 and B = 0 reductions exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import sympy as sp
from sympy.polys.rings import PolyElement

from .kernel import Context, _convert, _Domain, _expr, all_zero, normalize

__all__ = [
    "DegeneracyError",
    "ItoSystem", "FokkerPlanck", "VectorField", "DiscreteMap",
    "fokker_planck_of", "same_fp", "ito_to_stratonovich",
    "lie_bracket", "transform_ito_first_order", "apply_discrete",
]


class DegeneracyError(ValueError):
    """sigma sigma^T vanishes identically."""


def _exprs(seq):
    return tuple(normalize(e) for e in seq)


def _matrix(rows):
    return tuple(tuple(normalize(e) for e in row) for row in rows)


def _expressions(value):
    """value, a ring element or tuples nesting them, with each ring element
    read as its expression: as_expr(), which `normalize` returns for it."""
    if isinstance(value, PolyElement):
        return value.as_expr()
    if isinstance(value, tuple):
        return tuple(map(_expressions, value))
    return value


class _Views:
    """Base of the frozen dataclasses whose fields may hold ring elements.
    `_keep` stores such a field as it is and drops it from the instance;
    its first read builds its expressions (`_expressions`) and keeps them
    as the field, so each is built at most once (two threads that read it
    first at the same time may both build it, into equal values).
    Equality, hashing, repr and dataclasses.replace read the field, so
    they build it too; the engine reads the stored ring elements through
    `_stored`, and `_replace` copies them as they are."""

    def _keep(self, name, value):
        object.__delattr__(self, name)
        self.__dict__.setdefault("_kept", {})[name] = value

    def _stored(self, name):
        """The field as stored: kept ring elements stay ring elements."""
        kept = self.__dict__.get("_kept", {})
        return kept[name] if name in kept else getattr(self, name)

    def _replace(self, **changes):
        """dataclasses.replace over the stored fields, which builds no
        expression."""
        stored = {f.name: self._stored(f.name) for f in fields(self) if f.init}
        return replace(self, **(stored | changes))

    def __getattr__(self, name):
        # reached only for a name missing from the instance
        kept = self.__dict__.get("_kept", {})
        if name not in kept:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        value = _expressions(kept[name])
        object.__setattr__(self, name, value)
        return value


@dataclass(frozen=True)
class ItoSystem(_Views):
    """dx^i = f^i(x,t) dt + sigma^i_k(x,t) dw^k on R^n with m noise channels.

    The constructor converts f and sigma once into the exact domain
    (`kernel._convert`). When they lie in the context's ring QQ[params,
    x, t], f and sigma are kept there and read as their expressions, built
    on the first read (`_Views`); otherwise they are normalized at once.
    The system also keeps its coefficients in the engine's type and their
    conversion into each wider domain a candidate needs (`_of`); neither
    takes part in equality."""
    context: Context
    f: tuple
    sigma: tuple
    name: str = ""
    _coefficients: object = field(init=False, default=None, compare=False,
                                  repr=False)
    _domains: dict = field(init=False, default_factory=dict, compare=False,
                           repr=False)

    def __post_init__(self):
        ctx = self.context
        n, m = ctx.n, ctx.m
        if len(self.f) != n:
            raise ValueError(f"expected {n} drift components, got {len(self.f)}")
        if len(self.sigma) != n or any(len(row) != m for row in self.sigma):
            raise ValueError(f"sigma must be {n}x{m}")
        base = _Ring(ctx.ring, ctx.spatial, ctx.t)
        converted = _convert(base, [self.f, *self.sigma])
        if converted and converted[0] is base:
            # as_expr() of an element of QQ[params, x, t] is normalized
            f, *sigma = converted[1]
            self._keep("f", tuple(f))
            self._keep("sigma", tuple(map(tuple, sigma)))
        else:
            object.__setattr__(self, "f", _exprs(self.f))
            object.__setattr__(self, "sigma", _matrix(self.sigma))
        # an exact domain over ctx.ring holds functions of its symbols only
        allowed = set(ctx.ring.symbols)
        for e in () if converted else (*self.f, *sum(self.sigma, ())):
            extra = e.free_symbols - allowed
            if extra:
                names = ", ".join(sorted(s.name for s in extra))
                raise ValueError(f"coefficient depends on non-(x,t) symbols: {names}")
        if converted:
            calc, (f, *sigma) = converted
            object.__setattr__(self, "_coefficients", _Coefficients(
                calc, calc.x, calc.t, f, sigma))

    @property
    def n(self):
        return self.context.n

    @property
    def m(self):
        return self.context.m

    def sigma_matrix(self):
        return sp.Matrix(self.sigma)

    @cached_property
    def _expr_coefficients(self):
        """The coefficients as expressions, built once."""
        ctx = self.context
        return _Coefficients(_EXPRS, ctx.spatial, ctx.t, self.f, self.sigma)

    def _of(self, groups):
        """The coefficients and the candidate's entry groups in one type:
        the exact domain, widened where the entries need it, when every
        entry lies in it, else expressions. A wider domain converts f and
        sigma once more, and the system keeps them."""
        c = self._coefficients
        converted = c and _convert(c.calc, groups)
        if converted is None:
            return (self._expr_coefficients,
                    [[_expr(e) for e in g] for g in groups])
        calc, groups = converted
        if calc is c.calc:
            return c, groups
        wide = self._domains.get(calc.key)
        if wide is None:
            _, (f, *sigma) = _convert(calc, [self.f, *self.sigma])
            wide = self._domains[calc.key] = _Coefficients(
                calc, calc.x, calc.t, f, sigma)
        return wide, groups

    @cached_property
    def _fokker_planck(self):
        """The Fokker-Planck equation; its degeneracy is decided once."""
        c = self._coefficients or self._expr_coefficients
        (A, B, C), leave = c.fokker_planck, c.calc.leave
        out = FokkerPlanck(self.context, A=[[leave(e) for e in r] for r in A],
                           B=[leave(e) for e in B], C=leave(C))
        if not c.S or (c.calc is _EXPRS and all_zero(
                e for row in out.A for e in row)):
            raise DegeneracyError("sigma sigma^T vanishes identically")
        return out


@dataclass(frozen=True)
class FokkerPlanck:
    """Coefficients of u_t + A^{ij} d2_{ij} u + B^i d_i u + C u = 0; the
    constructor normalizes them and checks that A is symmetric."""
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


@dataclass(frozen=True)
class VectorField:
    """Generator tau(t) d_t + xi^i(x,t) d_i. It may be extended by
    beta(x,t) u d_u, or act also on the Wiener process by w -> w + eps B w
    with B constant antisymmetric (`Bmat`; () stands for B = 0), not both.
    The constructor normalizes tau, xi, beta and B; xi defaults to zero."""
    context: Context
    tau: object = 0
    xi: tuple = ()
    beta: object = None
    name: str = ""
    Bmat: tuple = None

    def __post_init__(self):
        ctx = self.context
        object.__setattr__(self, "tau", normalize(self.tau))
        object.__setattr__(self, "xi", _exprs(self.xi or (0,) * ctx.n))
        if len(self.xi) != ctx.n:
            raise ValueError(f"expected {ctx.n} xi components")
        if sp.sympify(self.tau).free_symbols & set(ctx.spatial):
            raise ValueError("tau must not depend on the spatial variables")
        if self.beta is not None:
            if self.Bmat is not None:
                raise ValueError("beta is not supported on noise-mixing "
                                 "candidates")
            object.__setattr__(self, "beta", normalize(self.beta))
        if self.Bmat is not None:
            m = ctx.m
            B = _noise_matrix(ctx, self.Bmat or ((0,) * m,) * m, "B")
            object.__setattr__(self, "Bmat", B)
            if not all_zero(B[p][q] + B[q][p]
                            for p in range(m) for q in range(p, m)):
                raise ValueError("B must be antisymmetric")


def _noise_matrix(ctx, mat, what):
    """mat normalized, checked to be an m x m matrix constant in x and t."""
    mat, m = _matrix(mat), ctx.m
    if len(mat) != m or any(len(row) != m for row in mat):
        raise ValueError(f"{what} must be {m}x{m}")
    if any(not e.is_Number and e.free_symbols & {ctx.t, *ctx.spatial}
           for row in mat for e in row):
        raise ValueError(f"{what} must be constant in x and t")
    return mat


@dataclass(frozen=True)
class DiscreteMap(_Views):
    """Finite change of coordinates y^i = phi^i(x,t) with new noise
    z = R w, R constant orthogonal; the constructor normalizes R, and phi
    unless every entry is an element of the context's ring, which is kept
    as it is and read as its expression (`_Views`)."""
    context: Context
    phi: tuple
    R: tuple

    def __post_init__(self):
        ring = self.context.ring
        if len(self.phi) != self.context.n:
            raise ValueError(f"expected {self.context.n} map components")
        if all(isinstance(e, PolyElement) and e.ring == ring
               for e in self.phi):
            self._keep("phi", tuple(self.phi))
        else:
            object.__setattr__(self, "phi", _exprs(self.phi))
        R = _noise_matrix(self.context, self.R, "R")
        object.__setattr__(self, "R", R)
        # R R^T is symmetric: its upper triangle decides R R^T = I
        if not all_zero(_dot(R[i], R[j]) - int(i == j)
                        for i in range(len(R)) for j in range(i, len(R))):
            raise ValueError("R must be orthogonal")


# ---------------------------------------------------------------------------
# the Ito generator L = d_t + f^a d_a + S^{ab} d2_{ab}
#
# The formulas below are written once, over two exact coefficient types:
# sympy expressions, differentiated by symbol, and elements of a sparse
# polynomial ring, differentiated by generator index; `_Coefficients` holds
# a system, its generator L and its Fokker-Planck A, B, C in one type. They
# return raw sums over the structurally nonzero terms only; their callers
# take them out through `leave` and normalize once, at their output.

class _Exprs:
    """Calculus on sympy expressions, the general coefficient type; a
    variable is a symbol."""
    zero, one, half = sp.Integer(0), sp.Integer(1), sp.Rational(1, 2)

    @staticmethod
    def d(e, v):
        """d e / d v, without calling the differentiator when e is free of v."""
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

    @staticmethod
    def leave(e):
        """e as an expression, for `normalize` and the zero test."""
        return e

    def dot(self, u, v):
        # a zero is falsy in both types, a Float 0.0 included
        return self.add([a * b for a, b in zip(u, v) if a and b])

    def second_order(self, entries, grad, x):
        """M^{ab} d2_{ab} u over the nonzero entries (a, b, M^{ab}) of M,
        from the gradient `grad` of u."""
        return self.add([w * self.d(grad[a], x[b]) for a, b, w in entries
                         if grad[a]])

    def noise_image(self, grad, sigma):
        """(grad u) . sigma: the noise coefficients d_a u sigma^a_j of
        u(x, t) for each column j of the n x m nested sequence sigma."""
        return [self.dot(grad, col) for col in zip(*sigma)]


_EXPRS = _Exprs()
# the expression calculus as plain functions, for the structural maps
_gradient, _dot = _EXPRS.gradient, _EXPRS.dot


class _Ring(_Domain, _Exprs):
    """The same calculus in a sparse polynomial ring, where +, * and d/dv
    are exact; a variable is a generator index. The ring is the exact
    domain (`kernel._Domain`, built by `kernel._convert`), or, for the
    solver, EX[x, t, E_1..E_k]; E_k stands for exp(c_k t), c_k free of x
    and t, under d_t E_k = c_k E_k. Every other generator besides x and t
    is a constant, so the calculus commutes with the domain's relations,
    which `leave` applies."""

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


@dataclass(frozen=True)
class _Coefficients:
    """An Ito system in one coefficient type: the calculus `calc` of that
    type, the variables x and t, f and sigma / lam, where the solver scales
    a common radical lam out of sigma (`solve._common_radical`); the
    Fokker-Planck family reads its A, B and C, computed from them."""
    calc: _Exprs
    x: tuple
    t: object
    f: list
    sigma: list
    lam: object = 1

    @cached_property
    def S(self):
        """The nonzero entries (a, b, S^{ab}) of S = (1/2) sigma sigma^T in
        row-major order, summed over sigma's nonzero pattern only."""
        c, S = self.calc, {}
        for col in zip(*self.sigma):
            rows = [(a, e) for a, e in enumerate(col) if e]
            for a, u in rows:
                for b, v in rows:
                    S[a, b] = S.get((a, b), c.zero) + u * v
        half = c.half if self.lam == 1 else c.half * int(self.lam**2)
        return [(a, b, half * w) for (a, b), w in sorted(S.items()) if w]

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

    @cached_property
    def fokker_planck(self):
        """The associated Fokker-Planck coefficients (A, B, C) in the same
        type: A = -S, B^i = f^i + 2 d_j A^{ij},
        C = d_i f^i + d2_{ij} A^{ij}."""
        c, x, n = self.calc, self.x, len(self.f)
        A = [[c.zero] * n for _ in range(n)]
        for a, b, w in self.S:
            A[a][b] = -w
        # d_j A^{ij}, so that d2_{ij} A^{ij} = d_i (d_j A^{ij})
        div = [c.add([c.d(e, v) for e, v in zip(row, x)]) for row in A]
        B = [f + 2 * d for f, d in zip(self.f, div)]
        C = c.add([c.d(f + d, v) for f, d, v in zip(self.f, div, x)])
        return A, B, C

    def fp_L(self, u, grad):
        """d_t u + A^{ab} d2_{ab} u + B^a d_a u from (u, grad u), A = -S:
        the Fokker-Planck operator without its C u term."""
        c = self.calc
        return (c.d(u, self.t) - c.second_order(self.S, grad, self.x)
                + c.dot(self.fokker_planck[1], grad))


# ---------------------------------------------------------------------------
# structural maps

def fokker_planck_of(ito: ItoSystem) -> FokkerPlanck:
    """Coefficients of the associated Fokker-Planck equation, built once per
    system: A = -(1/2) sigma sigma^T, B^i = f^i + 2 d_j A^{ij},
    C = d_i f^i + d2_{ij} A^{ij}. Raises DegeneracyError when
    S = (1/2) sigma sigma^T = -A vanishes identically and InconclusiveError
    when the zero test cannot decide whether it does."""
    return ito._fokker_planck


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
    S = ito.sigma_matrix() * ito.sigma_matrix().T
    bracket = lie_bracket(ito.f, xi, x)
    delta_f = []
    for i in range(n):
        second = sum(S[j, k] * sp.diff(xi[i], x[j], x[k])
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
    c, (phi, inverse, *R) = ito._of([dmap._stored("phi"), inverse, *dmap.R])
    drift, noise = c.image(phi, R)
    at = c.calc.substitution(c.x, inverse) if inverse else (lambda e: e)
    leave = c.calc.leave
    return ItoSystem(context=ito.context, f=[leave(at(e)) for e in drift],
                     sigma=[[leave(at(e)) for e in r] for r in noise],
                     name=ito.name and f"{ito.name}*")
