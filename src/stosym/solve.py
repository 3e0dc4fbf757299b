"""Symmetry search by bounded ansatz: xi polynomial in x with coefficients
over a finite time-function basis closed under d/dt, tau over the same
basis. Coefficient matching turns the determining systems into an exact
homogeneous linear problem, eliminated by one sparse row reduction over
the fraction field of the parameters. The determining operator is linear
in the candidate, so the coefficient matrix is built column by column, one
ansatz basis element at a time, in one ring, and read off the terms of its
elements. Each exp(c t + d) of the system or the basis is exp(d) E_c, one
generator E_c per rate c with d/dt E_c = c E_c, and a row of the matrix is
an entry, an x-t monomial and a net rate. The ring is
- QQ[q, params, x, t, r, E_1..E_k] when every entry lies in it and no
  exponential carries a shift d, with one positive generator q per
  parameter p declared positive that occurs as sqrt(p) (p = q^2) and one
  placeholder r per sqrt of a positive rational, which the matrix maps
  into QQ.algebraic_field of those radicals;
- EX[x, t, E_1..E_k] otherwise.
Input outside both lies outside the ansatz."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache, partial

import sympy as sp
from sympy.polys.domains import EX, QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyRing

from .kernel import InconclusiveError, Verdict, _own_ring, _ring_element
from .model import (ItoSystem, VectorField, WSymmetry, _Coefficients,
                    _Ring, lie_bracket)
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


# --- linear decomposition over {x^a * t^b * exp(r t)} monomials ---

@lru_cache(maxsize=None)
def _exp_generator(k):
    """The k-th generator E_k, standing for one exp(c_k t), the same one on
    every call, so that the rings over the same generators are built
    once."""
    return sp.Dummy(f"E{k}")


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
    QQ; `_coefficient_matrix` maps its powers into the algebraic field."""


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


def _exp_split(a, x, t):
    """(c, d) with a = exp(c t + d) and c, d free of x and t, or None."""
    d, ct = sp.expand(a.args[0]).as_independent(t, as_Add=True)
    c = ct.diff(t)
    return None if c.has(t, *x) or d.has(*x) else (c, d)


def _in_exp_ring(symbols, x, t, groups, error):
    """The calculus of the ansatz ring, and the entry groups (sequences of
    expressions) as its elements. Each exp(c t + d) with c, d free of x and
    t is exp(d) E_c, one generator E_c per rate c. The ring is
    QQ[symbols, r_1..r_j, E_1..E_k] when every entry and rate lies in it
    and every d is 0, with
    - each parameter p declared positive that occurs as sqrt(p) replaced by
      its generator q (`_Root`), p = q^2 in every entry and rate;
    - one placeholder r_i (`_Surd`) per sqrt of a positive rational;
    and EX[x, t, E_1..E_k] otherwise. Raises `error` naming the first entry
    outside both."""
    entries = [sp.sympify(e) for g in groups for e in g]
    # one walk per entry finds the radicals and the exponentials
    found = set().union(*(e.atoms(sp.Pow, sp.exp) for e in entries))
    powers = [w for w in found if w.is_Pow and w.exp.is_Rational
              and w.exp.q == 2]
    exps = sorted((a for a in found if isinstance(a, sp.exp)),
                  key=sp.default_sort_key)
    calc, out = (_over_rationals(symbols, x, t, entries, powers, exps)
                 or _over_expressions(x, t, entries, exps, error))
    it = iter(out)
    return calc, [[next(it) for _ in g] for g in groups]


def _over_rationals(symbols, x, t, entries, powers, exps):
    """`_in_exp_ring` over QQ, or None."""
    roots = {w.base: _root_generator(w.base) for w in powers
             if w.base in symbols and w.base.is_positive
             and w.base != t and w.base not in x}
    # sqrt(q^2) folds to q
    square = {p: q**2 for p, q in roots.items()}
    symbols = tuple(roots.get(s, s) for s in symbols)
    surds = sorted((w for w in powers if w.base.is_Rational
                    and w.base > 0 and w.exp == sp.S.Half),
                   key=sp.default_sort_key)
    places = {a: _surd_generator(a) for a in surds}
    rates, sub = {}, {**square, **places}
    for a in exps:
        split = _exp_split(a.xreplace(square), x, t)
        if split is None or split[1] != 0:
            return None
        sub[a] = rates.setdefault(split[0], _exp_generator(len(rates) + 1))
    ring = _own_ring((*symbols, *places.values(), *rates.values()))
    out = [_ring_element(e.xreplace(sub) if sub else e, ring)
           for e in entries]
    rates = [_ring_element(c, ring) for c in rates]
    if any(e is None for e in (*out, *rates)):
        return None
    return _Ring(ring, x, t, rates), out


def _over_expressions(x, t, entries, exps, error):
    """`_in_exp_ring` over EX."""
    rates, sub = {}, {}
    for a in exps:
        split = _exp_split(a, x, t)
        if split is not None:
            E = rates.setdefault(split[0], _exp_generator(len(rates) + 1))
            sub[a] = sp.exp(split[1]) * E
    gens = (*x, t, *rates.values())
    replaced = [e.xreplace(sub) for e in entries]
    try:
        polys, _ = sp.parallel_poly_from_expr(replaced, *gens, domain=EX)
    except sp.PolynomialError as exc:
        # name the first offending entry, on this error path only
        for e, r in zip(entries, replaced):
            try:
                sp.Poly(r, *gens, domain=EX)
            except sp.PolynomialError:
                raise error(f"{e} is not polynomial over the ansatz "
                            "monomials (x, t and exponentials)") from exc
        raise
    ring = PolyRing(gens, EX)
    rates = [ring.ground_new(EX.from_sympy(c)) for c in rates]
    return (_Ring(ring, x, t, rates),
            [ring.from_dict(p.as_dict(native=True)) for p in polys])


def _coefficient_matrix(calc, columns):
    """Sparse DomainMatrix over a field whose column j holds the coordinates
    of `columns[j]`, sequences of elements of calc.ring from
    `_in_exp_ring`. A monomial's row is its entry, its x-t exponents and
    its net rate sum_k m_k c_k of E_1^m_1..E_k^m_k: E_k -> exp(c_k t) is a
    ring homomorphism that commutes with d/dt, and t^b x^a exp(r t) of
    distinct (a, b, r) are linearly independent. The rest of the monomial
    is its coefficient in K(params), over the parameters that occur and
    K = QQ(radicals) of the placeholders `_Surd` that occur, or in EX."""
    ring = calc.ring
    symbols, rates = ring.symbols, calc.rates
    xt, es = (*calc.x, calc.t), [k for k, _ in rates]
    rest = set(range(len(symbols))) - set(xt) - set(es)
    entries = [e for col in columns for e in col]
    used = sorted({i for e in entries for m in e for i in rest if m[i]})
    surds = [i for i in used if isinstance(symbols[i], _Surd)]
    split = [i for i in used if i not in surds]
    K = ring.domain
    if surds:
        K, roots = _radical_field(tuple(symbols[i].radical for i in surds))
        entries = [_map_surds(e, surds, roots, K) for e in entries]
    keys = [(j, r) for j, col in enumerate(columns) for r in range(len(col))]
    nets, rows = {}, {}
    for (j, r), e in zip(keys, entries):
        for monom, c in e.items():
            power = tuple(monom[k] for k in es)
            net = nets.get(power)
            if net is None:
                net = nets[power] = ring.add(
                    *(m * c_k for m, (_, c_k) in zip(power, rates) if m))
            row = rows.setdefault((r, tuple(monom[i] for i in xt), net), {})
            terms = row.setdefault(j, {})
            key = tuple(monom[i] for i in split)
            # E_c E_-c = 1: terms of one row may cancel
            terms[key] = terms[key] + c if key in terms else c
    if split:
        K = K.frac_field(*(symbols[i] for i in split))
        element = partial(_field_element, K.field)
    else:
        element = lambda terms: terms[()]
    matrix = []
    for key in sorted(rows, key=lambda key: key[:2]):
        row = {}
        for j, terms in rows[key].items():
            terms = {m: v for m, v in terms.items() if v}
            if terms:
                row[j] = element(terms)
        if row:
            matrix.append(row)
    return DomainMatrix(dict(enumerate(matrix)), (len(matrix), len(columns)),
                        K)


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


def _coordinates(columns, target, ctx):
    """Coefficients expressing `target` in the span of `columns` (sequences
    of expressions of equal length, in the context `ctx`), or None when it
    lies outside. Free coordinates are pinned to zero."""
    M = _coefficient_matrix(*_in_exp_ring(
        ctx.ring.symbols, ctx.spatial, ctx.t, [*columns, target],
        OutsideAnsatzError))
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
        calc, (elements,) = _in_exp_ring(symbols, (), t, [basis],
                                         NonClosedBasisError)
        columns = ([(b,) for b in elements]
                   + [(calc.d(b, calc.t),) for b in elements])
        pivots, _ = _rref_rows(_coefficient_matrix(calc, columns))
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
    """The ansatz basis elements (tau, xi, mixer) as expressions, the
    calculus of the ring of `_in_exp_ring` and the columns of the
    coefficient matrix in it: the Lambda and Gamma entries of each
    element."""
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
    calc, (basis, f, *sigma) = _in_exp_ring(
        ctx.ring.symbols, x, t, [ansatz.time_basis, ito.f, *ito.sigma],
        OutsideAnsatzError)
    c = _Coefficients(calc, calc.x, calc.t, f, sigma)
    gens = [calc.ring.gens[i] for i in calc.x]
    forms = _elements(n, basis, _monomials(gens, degree, calc.one), mixers,
                      calc.zero)
    one, zero = calc.one, calc.zero
    columns = []
    for tau, xi, pq in forms:
        # the columns of B = e_pq - e_qp
        B = [] if pq is None else [
            [one if (a, j) == pq else -one if (j, a) == pq else zero
             for a in range(m)] for j in range(m)]
        lam, gam = _lambda_gamma_of(c, tau, xi, B)
        columns.append([*lam, *(e for row in gam for e in row)])
    return elements, calc, columns


def solve_ansatz(ito: ItoSystem, ansatz: Ansatz, which: str = "projectable") -> SymmetryBasis:
    """Basis of the symmetry generators inside the ansatz, deterministic
    (reduced row-echelon normalization with a fixed monomial ordering).
    Every returned generator is re-verified through verify.check."""
    if which not in ("projectable", "w"):
        raise ValueError("which must be 'projectable' or 'w'")
    ctx = ito.context
    n, m = ito.n, ito.m
    elements, calc, columns = _columns(ito, ansatz, which)
    M = _coefficient_matrix(calc, columns)
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
                        (vf.tau, *vf.xi), vf.context)


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
