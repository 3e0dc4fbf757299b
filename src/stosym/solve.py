"""Symmetry search by bounded ansatz: xi polynomial in x with coefficients
over a finite time-function basis closed under d/dt, tau over the same
basis. Coefficient matching turns the determining systems into an exact
homogeneous linear problem, eliminated by one sparse row reduction over
the fraction field of the parameters. The determining operator is linear
in the candidate, so the coefficient matrix is built column by column, one
ansatz basis element at a time. When the system and the time basis allow,
the columns are computed in QQ[q, params, x, t, r, E_1..E_k] and the
matrix is read off their terms:
- one generator E_k per exp(c_k t), with d/dt E_k = c_k E_k, in the
  columns from the time basis only: they multiply the system by the
  candidate, and E_c E_-c = 1 is no relation of the ring;
- one positive generator q per parameter p declared positive that occurs
  as sqrt(p), with p = q^2;
- one placeholder r per sqrt of a positive rational, which the matrix
  maps into QQ.algebraic_field of those radicals.
Only input outside that ring takes sympy expressions and the EX domain."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyElement

from .kernel import InconclusiveError, Verdict, _own_ring, _ring_element
from .model import (ItoSystem, VectorField, WSymmetry, _Coefficients,
                    _ExpRing, lie_bracket)
from .detgen import _lambda_gamma_of, detsys_projectable, detsys_w
from .verify import OverallVerdict, check

__all__ = [
    "Ansatz", "SymmetryBasis", "StructuralFact", "NonClosedBasisError",
    "NonlinearEntanglementError", "OutsideAnsatzError", "default_time_basis",
    "solve_ansatz",
    "xi_second_derivative_constraint", "commutator_closure",
]


class NonClosedBasisError(ValueError):
    """The time basis is not closed under d/dt."""


class NonlinearEntanglementError(ValueError):
    """The determining equations do not reduce to a homogeneous linear
    system over the ansatz, or a solution of it fails re-verification."""


class OutsideAnsatzError(NonlinearEntanglementError):
    """A residual is not polynomial over the ansatz monomials: the system
    depends on x or t in a way the ansatz cannot match."""


def default_time_basis(t, rates=()):
    """{1, t, t^2} plus e^{ct}, e^{-ct}, t e^{ct} for each declared rate c."""
    basis = [sp.Integer(1), t, t**2]
    for c in rates:
        basis += [sp.exp(c * t), sp.exp(-c * t), t * sp.exp(c * t)]
    return tuple(basis)


# --- linear decomposition over {x^a * t^b * exp(...)} monomials ---

class _Exp(sp.Dummy):
    """The generator E that stands for one exp(c t) in a coefficient
    system."""


@lru_cache(maxsize=None)
def _exp_generator(k):
    """The k-th generator E_k, the same one on every call, so that the
    rings over the same generators are built once."""
    return _Exp(f"E{k}")


class _Root(sp.Dummy):
    """The positive generator q that stands for sqrt(p) of a positive
    parameter p, with p = q^2: p -> sqrt(p) is a bijection of (0, oo), so a
    rational identity in q > 0 holds in p > 0."""


@lru_cache(maxsize=None)
def _root_generator(p):
    """q of the parameter p, the same one on every call."""
    q = _Root(f"q_{p.name}", positive=True)
    q.param = p
    return q


class _Surd(sp.Dummy):
    """The placeholder r of sqrt(n) for a positive rational n in a ring over
    QQ; `_ring_matrix` maps its powers into the algebraic field."""


@lru_cache(maxsize=None)
def _surd_generator(radical):
    """r of the radical, the same one on every call."""
    r = _Surd(str(radical))
    r.radical = radical
    return r


@lru_cache(maxsize=None)
def _radical_field(radicals):
    """QQ(radicals) and each radical as its element, built once."""
    K = QQ.algebraic_field(*radicals)
    return K, [K.from_sympy(a) for a in radicals]


def _replace_exps(e, reps):
    """Replace every exp atom of e by a generator E_k keyed by its
    (expanded) argument in `reps`; distinct arguments are linearly
    independent."""
    sub = {}
    for a in e.atoms(sp.exp):
        key = sp.expand(a.args[0])
        if key not in reps:
            reps[key] = _exp_generator(len(reps) + 1)
        sub[a] = reps[key]
    return e.xreplace(sub) if sub else e


def _rate(base, arg, x, t):
    """c in QQ[params] with arg = c t, as an element of `base` (the ring
    QQ[params, x, t]), or None."""
    p = _ring_element(arg, base)
    ti = base.symbols.index(t)
    xs = [base.symbols.index(v) for v in x]
    if not p or any(m[ti] != 1 or any(m[i] for i in xs) for m in p):
        return None
    return base.dtype({m[:ti] + (0,) + m[ti + 1:]: v for m, v in p.items()})


def _in_exp_ring(symbols, x, t, groups):
    """The calculus of QQ[symbols, r_1..r_j, E_1..E_k], and the entry groups
    (sequences of expressions) as its elements, with
    - each parameter p declared positive that occurs as sqrt(p) replaced by
      its generator q (`_Root`), p = q^2 in every entry and rate;
    - one placeholder r_i (`_Surd`) per sqrt of a positive rational;
    - one generator E_k per distinct exp(c_k t), c_k in QQ[symbols other
      than x and t].
    None when some entry lies outside that ring, and when a term holds two
    exponential generators: E_c E_-c = 1 is no relation of the ring, so
    distinct generators are linearly independent only one to a term."""
    entries = [sp.sympify(e) for g in groups for e in g]
    powers = {w for e in entries for w in e.atoms(sp.Pow)
              if w.exp.is_Rational and w.exp.q == 2}
    roots = {w.base: _root_generator(w.base) for w in powers
             if w.base in symbols and w.base.is_positive
             and w.base != t and w.base not in x}
    if roots:
        # sqrt(q^2) folds to q
        square = {p: q**2 for p, q in roots.items()}
        entries = [e.xreplace(square) for e in entries]
        symbols = tuple(roots.get(s, s) for s in symbols)
    reps = {}
    entries = [_replace_exps(e, reps) for e in entries]
    surds = sorted((w for w in powers if w.base.is_Rational
                    and w.base > 0 and w.exp == sp.S.Half),
                   key=sp.default_sort_key)
    if surds:
        places = {a: _surd_generator(a) for a in surds}
        entries = [e.xreplace(places) for e in entries]
        symbols = (*symbols, *places.values())
    base = _own_ring(tuple(symbols))
    rates = [_rate(base, arg, x, t) for arg in reps]
    if any(c is None for c in rates):
        return None
    ring = _own_ring((*symbols, *reps.values()))
    out, n = [], len(symbols)
    for e in entries:
        p = _ring_element(e, ring)
        if p is None or any(sum(m[n:]) > 1 for m in p):
            return None
        out.append(p)
    calc = _ExpRing(ring, x, t, rates)
    it = iter(out)
    return calc, [[next(it) for _ in g] for g in groups]


def _coefficient_matrix(columns, variables, error):
    """Sparse DomainMatrix over a field whose column j holds the coordinates
    of `columns[j]`, with one row per (entry, monomial) over `variables` and
    the exponential atoms. The columns are sequences of elements of one
    ring from `_in_exp_ring`, whose coefficient domain is the fraction
    field of the parameters over QQ and its radicals, or of expressions
    outside that ring, eliminated over the domain that sympy picks for
    them (EX for radicals). Raises `error` for an expression entry outside
    that span."""
    keys = [(j, r) for j, col in enumerate(columns) for r in range(len(col))]
    entries = [e for col in columns for e in col]
    if entries and isinstance(entries[0], PolyElement):
        return _ring_matrix(keys, entries, variables, len(columns))
    reps = {}
    entries = [_replace_exps(sp.expand(e), reps) for e in entries]
    gens = (*variables, *reps.values())
    try:
        # the entries are expanded already
        polys, opt = sp.parallel_poly_from_expr(entries, *gens, expand=False)
    except sp.PolynomialError as exc:
        # name the first offending entry, on this error path only
        exps = {v: sp.exp(k) for k, v in reps.items()}
        for e in entries:
            try:
                sp.Poly(e, *gens)
            except sp.PolynomialError:
                raise error(f"{e.xreplace(exps)} is not polynomial over the "
                            f"ansatz monomials (x, t and exponentials)") from exc
        raise
    rows = {}
    for (j, r), p in zip(keys, polys):
        for monom, c in p.as_dict(native=True).items():
            rows.setdefault((r, monom), {})[j] = c
    index = {key: i for i, key in enumerate(sorted(rows))}
    return DomainMatrix({index[key]: row for key, row in rows.items()},
                        (len(rows), len(columns)), opt.domain).to_field()


def _ring_matrix(keys, entries, variables, width):
    """`_coefficient_matrix` of ring elements, read off their terms: the
    (x, t, E) part of a monomial is its row, the rest its coefficient in
    K(params), over the parameters that occur and K = QQ(radicals) of the
    placeholders `_Surd` that occur."""
    symbols = entries[0].ring.symbols
    row_part = [i for i, s in enumerate(symbols)
                if s in variables or isinstance(s, _Exp)]
    rest = set(range(len(symbols))) - set(row_part)
    used = sorted({i for e in entries for m in e for i in rest if m[i]})
    surds = [i for i in used if isinstance(symbols[i], _Surd)]
    split = [i for i in used if i not in surds]
    K = QQ
    if surds:
        K, roots = _radical_field(tuple(symbols[i].radical for i in surds))
        entries = [_map_surds(e, surds, roots, K) for e in entries]
    rows = {}
    for (j, r), e in zip(keys, entries):
        for monom, c in e.items():
            row = rows.setdefault((r, tuple(monom[i] for i in row_part)), {})
            row.setdefault(j, {})[tuple(monom[i] for i in split)] = c
    if split:
        K = K.frac_field(*(symbols[i] for i in split))
        element = partial(_field_element, K.field)
    else:
        element = lambda terms: terms[()]
    index = {key: i for i, key in enumerate(sorted(rows))}
    return DomainMatrix(
        {index[key]: {j: element(terms) for j, terms in row.items()}
         for key, row in rows.items()}, (len(rows), width), K)


def _map_surds(e, surds, roots, K):
    """The nonzero terms {monomial: coefficient in K} of e with each power
    of the placeholder at index surds[i] moved into the coefficient as
    that power of roots[i]; sqrt(2)^2 - 2 is no relation of the ring, so
    terms may cancel here."""
    out = {}
    for monom, c in e.items():
        v, m = K.convert(c, QQ), list(monom)
        for i, a in zip(surds, roots):
            if m[i]:
                v *= a**m[i]
                m[i] = 0
        m = tuple(m)
        out[m] = out.get(m, K.zero) + v
    return {m: v for m, v in out.items() if v}


def _field_element(field, terms):
    """The element of `field`, a field of fractions over QQ or an algebraic
    field, with numerator `terms` ({monomial: coefficient}) and denominator
    1, in the form its own arithmetic gives: over QQ integer numerator
    coefficients over a positive integer denominator, over an algebraic
    field (which has no ring to clear denominators into) the numerator
    itself."""
    numer = field.ring.dtype(terms)
    if not field.domain.is_QQ or all(c.denominator == 1
                                     for c in terms.values()):
        return field.raw_new(numer)
    den, numer = numer.clear_denoms()
    return field.raw_new(numer, field.ring.ground_new(den))


def _to_sympy(K):
    """K.to_sympy, with each generator q of `_in_exp_ring` mapped back to
    the sqrt(p) it stands for."""
    back = {q: sp.sqrt(q.param) for q in getattr(K, "symbols", ())
            if isinstance(q, _Root)}
    return lambda v: K.to_sympy(v).xreplace(back)


def _rref_rows(M):
    """Pivot columns and rows {column: element} of the RREF of M, in pivot
    order."""
    R, pivots = M.rref()
    return pivots, [R.rep[i] for i in sorted(R.rep)]


def _coordinates(columns, target, ctx, error):
    """Coefficients expressing `target` in the span of `columns` (sequences
    of expressions of equal length, in the context `ctx`), or None when it
    lies outside. Free coordinates are pinned to zero."""
    x, t = ctx.spatial, ctx.t
    groups = [*columns, target]
    converted = _in_exp_ring(ctx.ring.symbols, x, t, groups)
    M = _coefficient_matrix(groups if converted is None else converted[1],
                            (*x, t), error)
    k = len(columns)
    pivots, rows = _rref_rows(M)
    if k in pivots:
        return None
    coords = [sp.Integer(0)] * k
    to_sympy = _to_sympy(M.domain)
    for p, row in zip(pivots, rows):
        coords[p] = to_sympy(row.get(k, M.domain.zero))
    return tuple(coords)


@dataclass(frozen=True)
class Ansatz:
    """Search space: xi of max total degree `degree` in x, with tau and all
    polynomial coefficients drawn from `time_basis` (validated to be closed
    under d/dt at construction; linearly dependent elements are dropped,
    the first occurrence kept)."""
    degree: int
    time_basis: tuple
    t: sp.Symbol
    include_B: bool = False

    def __post_init__(self):
        basis = tuple(sp.sympify(b) for b in self.time_basis)
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        # closed iff every pivot of [B | dB/dt] lies in B; B's pivot
        # columns are a basis of its span
        t = self.t
        symbols = sorted({t}.union(*(b.free_symbols for b in basis)),
                         key=sp.default_sort_key)
        converted = _in_exp_ring(symbols, (), t, [basis])
        if converted is None:
            elements, d = basis, lambda b: sp.diff(b, t)
        else:
            calc, (elements,) = converted
            d = lambda b: calc.d(b, calc.t)
        columns = [(b,) for b in elements] + [(d(b),) for b in elements]
        M = _coefficient_matrix(columns, (t,), NonClosedBasisError)
        pivots, _ = _rref_rows(M)
        if any(p >= len(basis) for p in pivots):
            raise NonClosedBasisError(
                f"d/dt of the time basis {basis} leaves its span")
        object.__setattr__(self, "time_basis", tuple(basis[p] for p in pivots))


@dataclass(frozen=True)
class SymmetryBasis:
    generators: tuple

    @property
    def dimension(self):
        return len(self.generators)


@dataclass(frozen=True)
class StructuralFact:
    """Consequence of sigma^j_k d2_{jm} xi^i = 0 for x-independent sigma."""
    applies: bool
    degree_cap: int | None = None


def xi_second_derivative_constraint(ito: ItoSystem) -> StructuralFact:
    """For x-independent sigma, the Hessian columns of every xi^i must lie
    in null(sigma^T); an invertible sigma therefore caps the ansatz degree
    at 1."""
    x = set(ito.context.spatial)
    if any(sp.sympify(e).free_symbols & x for row in ito.sigma for e in row):
        return StructuralFact(applies=False)
    null = ito.sigma_matrix().T.nullspace()
    return StructuralFact(applies=True, degree_cap=None if null else 1)


def _monomials(x, degree, one):
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(len(x)), total):
            m = one
            for j in combo:
                m *= x[j]
            out.append(m)
    return out


def _elements(n, basis, monomials, mixers, zero):
    """(tau, xi, mixer) of each ansatz basis element, one per column of the
    coefficient matrix; a mixer is a pair (p, q) for B = e_pq - e_qp."""
    z = (zero,) * n
    out = [(zero, z[:i] + (bt * mu,) + z[i + 1:], None)
           for i in range(n) for mu in monomials for bt in basis]
    out += [(bt, z, None) for bt in basis]
    return out + [(zero, z, pq) for pq in mixers]


def _first_label(report, verdict):
    return next(label for label, v, _ in report.per_equation if v is verdict)


def _columns(ito: ItoSystem, ansatz: Ansatz, which: str):
    """The ansatz basis elements (tau, xi, mixer) as expressions, and the
    columns of the coefficient matrix: the Lambda and Gamma entries of each
    element, in the ring of `_in_exp_ring` when the system and the basis
    lie in it and the system holds no exponential, else as expressions."""
    ctx = ito.context
    x, t = ctx.spatial, ctx.t
    n, m = ito.n, ito.m
    degree = ansatz.degree
    cap = xi_second_derivative_constraint(ito)
    if cap.degree_cap is not None:
        degree = min(degree, cap.degree_cap)
    mixers = (list(itertools.combinations(range(m), 2))
              if which == "w" and ansatz.include_B else [])
    elements = _elements(n, ansatz.time_basis,
                         _monomials(x, degree, sp.Integer(1)), mixers,
                         sp.Integer(0))
    # the columns multiply f, sigma and S by the candidate, where an
    # exponential of the system would meet one of the basis in a term and
    # E_c E_-c = 1 is no relation of the ring: the E_k come from the basis
    system = [*ito.f, *(e for row in ito.sigma for e in row)]
    converted = None
    if not any(sp.sympify(e).has(sp.exp) for e in system):
        converted = _in_exp_ring(ctx.ring.symbols, x, t,
                                 [ansatz.time_basis, ito.f, *ito.sigma])
    if converted:
        calc, (basis, f, *sigma) = converted
        c = _Coefficients(calc, calc.x, calc.t, f, sigma,
                          calc.half_diffusion(sigma))
        gens = [calc.ring.gens[i] for i in calc.x]
        forms = _elements(n, basis, _monomials(gens, degree, calc.one),
                          mixers, calc.zero)
    else:
        c, forms = ito._engine.exprs, elements
    one, zero = c.calc.one, c.calc.zero
    columns = []
    for tau, xi, pq in forms:
        # the columns of B = e_pq - e_qp
        B = [] if pq is None else [
            [one if (a, j) == pq else -one if (j, a) == pq else zero
             for a in range(m)] for j in range(m)]
        lam, gam = _lambda_gamma_of(c, tau, xi, B)
        columns.append([*lam, *(e for row in gam for e in row)])
    return elements, columns


def solve_ansatz(ito: ItoSystem, ansatz: Ansatz, which: str = "projectable") -> SymmetryBasis:
    """Basis of the symmetry generators inside the ansatz, deterministic
    (reduced row-echelon normalization with a fixed monomial ordering).
    Every returned generator is re-verified through verify.check."""
    if which not in ("projectable", "w"):
        raise ValueError("which must be 'projectable' or 'w'")
    ctx = ito.context
    n, m = ito.n, ito.m
    elements, columns = _columns(ito, ansatz, which)
    M = _coefficient_matrix(columns, (*ctx.spatial, ctx.t),
                            OutsideAnsatzError)
    K = M.domain
    # null basis off the free columns, then its unique RREF
    pivots, rows = _rref_rows(M)
    free = sorted(set(range(len(elements))) - set(pivots))
    null = {}
    for i, f in enumerate(free):
        null[i] = {p: -row[f] for p, row in zip(pivots, rows) if f in row}
        null[i][f] = K.one
    _, reduced = _rref_rows(DomainMatrix(null, (len(free), len(elements)), K))
    to_sympy = _to_sympy(K)
    generators = []
    for row in reduced:
        picked = [(to_sympy(row[j]), elements[j]) for j in sorted(row)]
        # the constructors normalize every entry
        g_tau = sum(c * tau for c, (tau, _, _) in picked)
        g_xi = tuple(sum(c * xi[i] for c, (_, xi, _) in picked) for i in range(n))
        if which == "w":
            g_B = sp.zeros(m, m)
            for c, (_, _, pq) in picked:
                if pq is not None:
                    g_B[pq] += c
                    g_B[pq[::-1]] -= c
            gen = WSymmetry(ctx, tau=g_tau, xi=g_xi, Bmat=g_B.tolist())
            report = check(detsys_w(ito, gen))
        else:
            gen = VectorField(ctx, tau=g_tau, xi=g_xi)
            report = check(detsys_projectable(ito, gen))
        if report.overall is OverallVerdict.INCONCLUSIVE:
            raise InconclusiveError(
                "re-verification of a solver candidate is inconclusive at "
                + _first_label(report, Verdict.INCONCLUSIVE))
        if report.overall is OverallVerdict.NOT_SYMMETRY:
            raise NonlinearEntanglementError(
                "solver produced a candidate that fails re-verification at "
                + _first_label(report, Verdict.NONZERO)
                + "; parameters are likely entangled nonlinearly")
        generators.append(gen)
    return SymmetryBasis(generators=tuple(generators))


def membership_coordinates(basis: SymmetryBasis, vf: VectorField):
    """Coordinates of vf in the span of the basis generators, or None.
    Used to test completeness within an ansatz."""
    return _coordinates([(g.tau, *g.xi) for g in basis.generators],
                        (vf.tau, *vf.xi), vf.context, OutsideAnsatzError)


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    table: dict = field(default_factory=dict)  # (i, j) -> coords or None


def commutator(v1: VectorField, v2: VectorField) -> VectorField:
    """[v1, v2] for projectable fields: tau = tau1 tau2' - tau2 tau1',
    xi = tau1 d_t xi2 - tau2 d_t xi1 + {xi1, xi2}."""
    x, t = v1.context.spatial, v1.context.t
    tau = v1.tau * sp.diff(v2.tau, t) - v2.tau * sp.diff(v1.tau, t)
    bracket = lie_bracket(v1.xi, v2.xi, x)
    xi = tuple(v1.tau * sp.diff(b, t) - v2.tau * sp.diff(a, t) + c
               for a, b, c in zip(v1.xi, v2.xi, bracket))
    return VectorField(v1.context, tau=tau, xi=xi)


def commutator_closure(basis: SymmetryBasis) -> ClosureReport:
    """Pairwise commutators expressed in the basis; reports structure
    constants or flags the algebra as not closed within the ansatz."""
    gens = basis.generators
    if any(not isinstance(g, VectorField) for g in gens):
        raise ValueError("commutator closure is defined for VectorField bases")
    table = {}
    closed = True
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            coords = membership_coordinates(basis, commutator(gens[i], gens[j]))
            table[(i, j)] = coords
            if coords is None:
                closed = False
    return ClosureReport(closed=closed, table=table)
