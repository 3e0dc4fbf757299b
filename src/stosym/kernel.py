"""Minimal expression kernel: parsing, normalization through the exact
domain or a cached rewrite loop, and a three-way zero test (zero, nonzero
or inconclusive).

Expressions are plain sympy objects restricted to a fixed fragment:
rational constants, declared symbols, sums, products, integer/rational
powers, exp, sin, cos, sqrt, and opaque (unanalyzed) function symbols.
All operations are pure; expressions are immutable and thread-safe.
"""
from __future__ import annotations

import cmath
import enum
import random
import re
from functools import cached_property, lru_cache

import sympy as sp
from sympy.core.cache import cacheit
from sympy.core.evalf import PrecisionExhausted
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement, PolyRing
from sympy.simplify.fu import TR5, TR8

__all__ = [
    "Context",
    "ExprError", "ParseError", "UndeclaredSymbolError",
    "UnboundSymbolError", "DomainError", "InconclusiveError",
    "Verdict", "parse_expr", "normalize", "zero_verdict", "is_zero",
    "all_zero", "eval_numeric", "to_dsl",
]

BUILTIN_FUNCTIONS = {"exp": sp.exp, "sin": sp.sin, "cos": sp.cos, "sqrt": sp.sqrt}
# Bound on every integer written in an exponent and on the degree a power
# reaches: a power is expanded when it is normalized, and 9^9999999999
# alone would need gigabytes.
_MAX_EXPONENT = 64
_MAX_BITS = _MAX_EXPONENT ** 2  # of an evaluated power of a number


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class UndeclaredSymbolError(ParseError):
    def __init__(self, name, line, col):
        super().__init__(f"undeclared symbol '{name}'", line, col)
        self.name = name


class UnboundSymbolError(ExprError):
    pass


class DomainError(ExprError):
    pass


class InconclusiveError(ExprError):
    """Raised by all_zero and is_zero when the zero test cannot decide."""


_T = sp.Symbol("t", real=True)  # the time of every Context


class Context:
    """Declaration table: spatial variables, the time t, parameters, noise
    names and opaque function symbols.

    Parameters may carry assumptions ("positive" or "nonzero"), used both by
    sympy's simplifier and by the randomized zero-test probe when picking
    sample values.
    """

    def __init__(self, spatial=(), params=None, noises=(), opaque=()):
        self.t = _T
        self.spatial_names = tuple(spatial)
        self.spatial = tuple(sp.Symbol(n, real=True) for n in self.spatial_names)
        self.noise_names = tuple(noises)
        if not isinstance(params, dict):
            params = dict.fromkeys(params or ())
        self.param_assumptions = dict(params)
        self.params = {}
        for name, assumption in params.items():
            if assumption not in (None, "real", "positive", "nonzero"):
                raise ValueError(f"unknown assumption '{assumption}' for parameter {name}")
            extra = {} if assumption in (None, "real") else {assumption: True}
            self.params[name] = sp.Symbol(name, real=True, **extra)
        self.opaque_names = tuple(opaque)
        self.opaque = {n: sp.Function(n) for n in self.opaque_names}

        self._symbols = {}
        for sym in (*self.spatial, self.t, *self.params.values()):
            if sym.name in self._symbols:
                raise ValueError(f"duplicate declaration of '{sym.name}'")
            self._symbols[sym.name] = sym

    @property
    def n(self):
        return len(self.spatial)

    @property
    def m(self):
        return len(self.noise_names)

    @cached_property
    def ring(self):
        """QQ[params, x, t], generators sorted by name, one per symbol set."""
        return _own_ring(tuple(sorted(self._symbols.values(),
                                      key=lambda s: s.name)))

    def symbol(self, name):
        try:
            return self._symbols[name]
        except KeyError:
            raise KeyError(f"'{name}' is not declared in this context") from None

    def is_declared(self, name):
        return name in self._symbols or name in self.opaque

    def with_params(self, extra):
        """New context extended with additional parameter declarations."""
        merged = dict(self.param_assumptions)
        for name, assumption in dict(extra).items():
            if name in merged and merged[name] != assumption:
                raise ValueError(f"conflicting redeclaration of parameter '{name}'")
            merged[name] = assumption
        return Context(spatial=self.spatial_names, params=merged,
                       noises=self.noise_names, opaque=self.opaque_names)


# ---------------------------------------------------------------------------
# parsing

# one alternative per token kind; a number has at most one dot
_TOKEN = re.compile(r"(?P<NEWLINE>\n)|(?P<SPACE>\s)"
                    r"|(?P<NUMBER>\d+\.?\d*|\.\d+)|(?P<NAME>[^\W\d]\w*)"
                    r"|(?P<OP>[-+*/^(),\[\]=])|(?P<ERROR>.)")


def _tokenize(text, line=1, col=1):
    """(kind, text, line, column) of each token of `text`, then EOF; the
    first character of `text` stands at column `col` of line `line`."""
    tokens, start = [], 1 - col  # start: the index of the line's column 1
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - start + 1
        if kind == "NEWLINE":
            line, start = line + 1, m.end()
        elif kind == "ERROR":
            raise ParseError(f"unexpected character '{m.group()}'", line, col)
        elif kind != "SPACE":
            tokens.append((kind, m.group(), line, col))
    tokens.append(("EOF", "", line, len(text) - start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens, context):
        self.tokens = tokens
        self.pos = 0
        self.ctx = context

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, line, col = self.peek()
        if val != value:
            shown = val if kind != "EOF" else "end of input"
            raise ParseError(f"expected '{value}', found '{shown}'", line, col)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, val, line, col = self.peek()
        if kind != "EOF":
            raise ParseError(f"unexpected trailing input '{val}'", line, col)
        return e

    def expr(self):
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.unary()
        degree = _degree(e)
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            _, _, line, col = self.peek()
            rhs = self.unary()
            # a product is bounded as a power is: its factors' degrees add
            degree += _degree(rhs)
            if degree > _MAX_EXPONENT:
                raise ParseError(f"degree {degree} is larger than "
                                 f"{_MAX_EXPONENT}", line, col)
            e = e * rhs if op == "*" else e / rhs
        return e

    def unary(self):
        if self.peek()[1] == "-":
            self.advance()
            return -self.unary()
        if self.peek()[1] == "+":
            self.advance()
            return self.unary()
        return self.factor()

    def factor(self):
        e = self.base()
        if self.peek()[1] == "^":
            self.advance()
            _, _, line, col = self.peek()
            p = self.exponent()
            # the bound covers the degree that expanding e^p reaches, also
            # when sympy folds (b^q)^p into b^(q p)
            degree = _degree(e) * abs(p)
            if degree > _MAX_EXPONENT:
                raise ParseError(f"degree {degree} is larger than "
                                 f"{_MAX_EXPONENT}", line, col)
            bits = abs(p) * (max(e.p.bit_length(), e.q.bit_length())
                             if e.is_Rational else 0)
            if bits > _MAX_BITS:
                raise ParseError(f"power of {int(bits)} bits is larger "
                                 f"than {_MAX_BITS}", line, col)
            e = e ** p
        return e

    def exponent(self):
        kind, val, line, col = self.peek()
        if val == "-":
            self.advance()
            return -self.exponent()
        if val == "(":
            self.advance()
            p = self.exponent()
            if self.peek()[1] == "/":
                self.advance()
                _, _, qline, qcol = self.peek()
                q = self.exponent()
                if q == 0:
                    raise ParseError("zero denominator in exponent", qline, qcol)
                p = sp.Rational(p, q)
            self.expect(")")
            return p
        if kind != "NUMBER" or "." in val:
            raise ParseError("exponent must be an integer or parenthesized rational", line, col)
        if int(val) > _MAX_EXPONENT:
            raise ParseError(f"exponent {val} is larger than {_MAX_EXPONENT}", line, col)
        self.advance()
        return sp.Integer(val)

    def base(self):
        kind, val, line, col = self.advance()
        if kind == "NUMBER":
            return sp.Integer(val) if "." not in val else sp.Rational(val)
        if kind == "NAME":
            if self.peek()[1] == "(":
                self.advance()
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if val in BUILTIN_FUNCTIONS:
                    if len(args) != 1:
                        raise ParseError(f"{val} takes one argument", line, col)
                    return BUILTIN_FUNCTIONS[val](*args)
                if val in self.ctx.opaque:
                    return self.ctx.opaque[val](*args)
                raise UndeclaredSymbolError(val, line, col)
            if self.ctx.is_declared(val) and val not in self.ctx.opaque:
                return self.ctx.symbol(val)
            raise UndeclaredSymbolError(val, line, col)
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        shown = val if kind != "EOF" else "end of input"
        raise ParseError(f"unexpected '{shown}'", line, col)


def _degree(e):
    """Total degree of e as a polynomial in its symbols and function calls,
    read off the tree; a number has degree 0, and a constant sum, which
    holds a radical or a function call, has degree 1 at least."""
    if e.is_Number:
        return 0
    if e.is_Add:
        return max(int(e.is_number), *map(_degree, e.args))
    if e.is_Mul:
        return sum(map(_degree, e.args))
    if e.is_Pow and e.exp.is_Rational:
        return abs(e.exp) * _degree(e.base)
    return 1


def parse_expr(text: str, context: Context, line=1, col=1) -> sp.Expr:
    """Parse a DSL expression against the declared names in `context`;
    `text` begins at column `col` of line `line` of its file.

    Raises ParseError on malformed input and UndeclaredSymbolError on free
    names missing from the context, both at their line and column in the
    file. Non-finite values raise ParseError too: a zero denominator in an
    exponent is reported where it stands, any other at column 1 of `line`.
    """
    e = normalize(_Parser(_tokenize(text, line, col), context).parse())
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise ParseError("expression is not finite (a denominator is "
                         "identically zero)", line, 1)
    return e


# ---------------------------------------------------------------------------
# normalization and calculus

def normalize(e) -> sp.Expr:
    """Canonical form within the supported fragment. Idempotent.

    A ring element is read through as_expr(), and a number (a Float
    included) is returned as it is: it is the loop's fixpoint. Any other
    input goes into the exact domain over its own symbols (`_exact`): a
    polynomial over QQ, and what only the widened domain of `_convert`
    takes (inverses of nonzero parameters, square roots of positive
    parameters and of integers, exp(c t)), comes out in the domain's
    normal form. An input that the domain refuses (a float, sin/cos, a
    shifted exp(c t + d), a denominator that is not a monomial in nonzero
    parameters, an irrational constant or an opaque function) takes the
    general loop: expand, rewrite sin^2 -> 1 - cos^2, product-to-sum for
    sin*cos pairs, cancel rational parts, iterated to a fixpoint. Both
    paths are kept in sympy's cache, so normalizing a normalized value
    again is one cache hit. The domain and the loop give the same
    expression where both apply."""
    if isinstance(e, PolyElement):
        return e.as_expr()
    e = sp.sympify(e)
    if e.is_Number:
        return e
    n = _exact(e)
    if n is None:
        return _normalize_loop(e)
    if n != e:
        _exact(n)  # n is its own normal form, kept in sympy's cache
    return n


def _ring_element(e, ring):
    """e in `ring`, a sparse polynomial ring over QQ, or None when e is not
    a float-free polynomial over QQ in its generators (QQ would turn 0.5
    into 1/2); an element of another ring gives None. The element is 0 iff
    e vanishes identically. The one way into a given ring, which `_convert`
    and `kpz.kpz_ito` take: only sums, products, symbols, rationals and
    powers with an integer exponent above 1 reach from_expr, which admits
    just these (floats apart) and prints ring and input into the error it
    raises on anything else."""
    if isinstance(e, PolyElement):
        return e if e.ring == ring else None
    e = sp.sympify(e)
    if e.is_Rational:
        return ring.ground_new(QQ(e.p, e.q))
    symbols, stack = set(), [e]
    while stack:
        node = stack.pop()
        if node.is_Symbol:
            symbols.add(node)
        elif node.is_Add or node.is_Mul:
            stack.extend(node.args)
        elif node.is_Pow and node.exp.is_Integer and node.exp > 1:
            stack.append(node.base)
        elif not node.is_Rational:
            return None
    return ring.from_expr(e) if symbols <= set(ring.symbols) else None


def _expr(e):
    """e as an expression: a ring element through as_expr()."""
    return e.as_expr() if isinstance(e, PolyElement) else sp.sympify(e)


@lru_cache(maxsize=256)
def _own_ring(generators):
    """QQ[generators], built once per generator tuple: sympy may not reuse
    an equal ring, and building one costs far more than a conversion."""
    return PolyRing(generators, QQ)


# ---------------------------------------------------------------------------
# the exact domain

@lru_cache(maxsize=None)
def _generator(name, positive=None):
    """A generator, the same on every call, named after what it stands
    for: q_p for sqrt(p) of a parameter p > 0 (p -> sqrt(p) is a
    bijection), 1/p or 1/sqrt(p) for the inverse of a nonzero parameter p
    or of q_p, sqrt(n) for a prime n, and E_k for exp(c_k t)."""
    return sp.Dummy(name, positive=positive)


@cacheit
def _exp_split(a, x, t):
    """(c, d) with a = exp(c t + d) and c, d free of x and t, or None."""
    c, d = [], []
    for term in sp.Add.make_args(sp.expand(a.args[0])):
        coefficient, rest = term.as_independent(t)
        if rest == t:
            c.append(coefficient)
        elif rest == 1:
            d.append(term)
        else:
            return None
    c, d = sp.Add(*c), sp.Add(*d)
    return None if c.has(*x) or d.has(*x) else (c, d)


class _Domain:
    """A sparse polynomial ring over QQ that stands for functions of the
    parameters, x and t: each generator is a symbol or stands for what
    `back` maps it to. Three relations hold between the generators, and
    `terms` applies them: g g' = 1 for each generator g and its inverse
    g' (`pairs`), s^2 = n for the generator s of sqrt(n), n prime
    (`primes`), and a product of E_k is exp(r t), r its net rate
    sum_k m_k c_k. The terms it leaves are independent functions, so an
    element vanishes identically iff `terms` is empty: distinct Laurent
    monomials are, square roots of distinct squarefree integers are
    linearly independent over QQ (Besicovitch, J. London Math. Soc. 1940),
    and t^b exp(r t) of distinct (b, r) are."""

    def __init__(self, ring, x, t, rates=(), back=None, key=None, pairs=(),
                 primes=()):
        """`ring`'s last len(rates) generators are the E_k, rates[k] is c_k
        in `ring`; x and t are symbols, `key` (base, x, t, roots, inverses,
        primes, rates) names the domain, `pairs` holds (g, g') and
        `primes` (s, n) as generator indices."""
        self.ring = ring
        self.zero, self.one, self.half = ring.zero, ring.one, ring(QQ(1, 2))
        index = {s: i for i, s in enumerate(ring.symbols)}
        self.x, self.t, self.time = tuple(index[v] for v in x), index.get(t), t
        self.rates = list(enumerate(rates, ring.ngens - len(rates)))
        self.back = back or {}
        self.key = key or (ring, tuple(x), t, (), (), (), ())
        self.pairs, self.primes = pairs, primes

    def terms(self, e):
        """{(monomial, net rate): coefficient} of the nonzero terms of e
        with the relations applied; the monomial holds no E_k, and the net
        rate is a frozenset of (monomial, coefficient) pairs."""
        out = {}
        for monom, c in e.items():
            m = list(monom)
            for i, j in self.pairs:
                low = min(m[i], m[j])
                m[i] -= low
                m[j] -= low
            for i, n in self.primes:
                if m[i] > 1:
                    c *= n ** (m[i] // 2)
                    m[i] %= 2
            net = {}
            for k, rate in self.rates:
                for rm, rc in rate.items() if m[k] else ():
                    net[rm] = net.get(rm, 0) + m[k] * rc
                m[k] = 0
            key = (tuple(m), frozenset((rm, rc) for rm, rc in net.items()
                                       if rc))
            out[key] = out.get(key, 0) + c
        return {key: c for key, c in out.items() if c}

    def leave(self, e):
        """e for `normalize` and the zero test: an element of the base ring
        as it is, which `normalize` reads through as_expr(), and any other
        as an expression in `normalize`d form, each term with the relations
        applied and its E_k merged into one exp per term of its net rate,
        as expand writes exp of a sum."""
        if not (self.back or self.rates):
            return e
        value = self.ring.domain.to_sympy
        gens = [self.back.get(g, g) for g in self.ring.symbols]

        def monomial(m):
            return [g**k for g, k in zip(gens, m) if k]
        # exp(c t) with c a nonzero monomial evaluates to itself: the
        # evaluation, which asks whether c t is zero, is skipped
        return sp.Add(*(sp.Mul(value(c), *monomial(m), *(
            sp.exp(sp.Mul(value(rc), *monomial(rm), self.time),
                   evaluate=False)
            for rm, rc in net)) for (m, net), c in self.terms(e).items()))


def _convert(calc, groups):
    """The one way into the exact domain: calc's domain (a `_Domain`),
    widened where the groups of entries need it, and the groups as its
    elements, or None. An entry that calc's ring takes costs that walk
    alone; the others are scanned for sqrt(p) of a parameter p > 0 (then
    p = q_p^2 everywhere), the inverse of a nonzero parameter or of q_p,
    sqrt(n) of an integer, one generator per prime of n, and exp(c t), c
    free of x and t, one E_k per rate c. A shifted exp(c t + d) is
    refused. In a wider domain every entry is converted anew, and an
    element of another ring from its expression. Each distinct rational
    is converted once per ring."""
    element = _elements(calc.ring)
    out = [[element(e) for e in g] for g in groups]
    refused = [_expr(e) for g, row in zip(groups, out)
               for e, p in zip(g, row) if p is None]
    if not refused:
        return calc, out
    base, x, t, roots, inverses, primes, rates = calc.key
    found = set().union(*(e.atoms(sp.Pow, sp.exp) for e in (*refused,
                                                             *rates)))
    pows = [w for w in found if w.is_Pow]
    symbols = set(base.symbols)
    # x and t are not positive, nor nonzero
    roots = {*roots, *(w.base for w in pows if w.base in symbols
                       and w.exp.is_Rational and w.exp.q == 2
                       and w.base.is_positive)}
    inverses = {*inverses, *(w.base for w in pows if w.base in symbols
                             and w.exp.is_negative and w.base.is_nonzero)}
    radicands = {}
    for w in pows:
        # sympy takes the small square factors out of sqrt(n)
        if (w.base.is_Integer and w.base > 0 and w.exp == sp.S.Half
                and int(w.base).bit_length() <= 64):
            factors = sp.factorint(w.base)
            if set(factors.values()) == {1}:
                radicands[w] = factors
    primes = {*primes, *(n for f in radicands.values() for n in f)}
    qs = {p: _generator("q_" + p.name, True) for p in roots}
    inv = {p: _generator(f"1/sqrt({p.name})" if p in qs else "1/" + p.name,
                         p.is_positive or None) for p in inverses}
    ss = {n: _generator(f"sqrt({n})", True) for n in primes}
    sub = {p: q**2 for p, q in qs.items()}
    for w in pows:
        b, n = w.base, w.exp
        if b in qs and (2 * n).is_Integer:
            # p^(n/2) -> q^n spares sympy (q^2)^(n/2)
            sub[w] = qs[b]**(2 * n) if n > 0 or b not in inv else \
                inv[b]**(-2 * n)
        elif b in inv and n.is_Integer and n < 0:
            sub[w] = inv[b]**-n
        elif w in radicands:
            sub[w] = sp.Mul(*(ss[p] for p in radicands[w]))
    if any(w.is_Pow and not w.exp.is_Integer and w not in sub for w in found):
        return None
    rates = list(rates)
    for a in sorted((a for a in found if isinstance(a, sp.exp)),
                    key=sp.default_sort_key):
        split = _exp_split(a, x, t)
        if split is None or split[1] != 0:
            return None
        if split[0] not in rates:
            rates.append(split[0])
        sub[a] = _generator(f"E{rates.index(split[0]) + 1}")
    key = (base, x, t, *(tuple(s for s in base.symbols if s in group)
                         for group in (roots, inverses)),
           tuple(sorted(primes)), tuple(rates))
    wider = calc
    if key != calc.key:
        es = [_generator(f"E{k}") for k in range(1, len(rates) + 1)]
        ring = _own_ring((*(qs.get(s, s) for s in base.symbols),
                          *(inv[p] for p in key[4]),
                          *(ss[n] for n in key[5]), *es))
        elements = [_ring_element(c.xreplace(sub), ring) for c in rates]
        if any(c is None for c in elements):
            return None
        back = {q: sp.sqrt(p) for p, q in qs.items()}
        back.update((inv[p], 1 / (back[qs[p]] if p in qs else p))
                    for p in key[4])
        back.update((s, sp.sqrt(n)) for n, s in ss.items())
        index = {s: i for i, s in enumerate(ring.symbols)}
        wider = type(calc)(
            ring, x, t, elements, back, key,
            [(index[qs.get(p, p)], index[inv[p]]) for p in key[4]],
            [(index[ss[n]], n) for n in key[5]])
    element = _elements(wider.ring, sub)
    out = [[element(e) if p is None or wider is not calc else p
            for e, p in zip(g, row)] for g, row in zip(groups, out)]
    return None if any(p is None for r in out for p in r) else (wider, out)


def _elements(ring, sub=None):
    """`_ring_element` into ring, of each entry's expression with sub
    applied when sub is given; a rational is converted once and its
    element reused."""
    numbers = {}

    def element(e):
        if isinstance(e, (int, sp.Rational)):
            if e not in numbers:
                numbers[e] = _ring_element(e, ring)
            return numbers[e]
        return _ring_element(e if sub is None else _expr(e).xreplace(sub),
                             ring)
    return element


@cacheit
def _exact(e):
    """The exact path of `normalize` and `zero_verdict`: e's normal form
    through the exact domain over its own symbols, sorted by name, or None
    when that domain refuses e. Every symbol but t is a constant there, so
    exp(c t) with c free of t is a generator. It is kept in sympy's cache,
    as the loop's steps are."""
    domain = _Domain(_own_ring(tuple(sorted(e.free_symbols,
                                            key=lambda s: s.name))), (), _T)
    converted = _convert(domain, [(e,)])
    if converted is None:
        return None
    calc, ((p,),) = converted
    n = calc.leave(p)
    return n.as_expr() if isinstance(n, PolyElement) else n


def _normalize_loop(e):
    """The general path of `normalize`: `_normalize_step` to a fixpoint.
    The last step computed maps the output to itself and stays in sympy's
    cache, so normalizing the output again is one cache hit. The tests
    hold the exact domain's path to the loop's output."""
    for _ in range(4):
        new = _normalize_step(e)
        if new == e:
            return new
        e = new
    return e


@cacheit
def _normalize_step(e):
    """expand, rewrite sin^2 -> 1 - cos^2 and sin*cos -> sums, cancel the
    rational parts, expand."""
    new = sp.expand(e)
    if new.has(sp.sin, sp.cos):
        new = sp.expand(TR8(TR5(new)))
    try:
        new = sp.cancel(new)
    except (sp.PolynomialError, NotImplementedError):
        pass
    return sp.expand(new)


# ---------------------------------------------------------------------------
# zero testing

class Verdict(enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    INCONCLUSIVE = "inconclusive"


_PROBE_POINTS = 8


def _sample_value(sym, rng):
    q = sp.Rational(rng.randint(1, 48), rng.randint(1, 16))
    if sym.is_positive:
        return q
    if rng.random() < 0.5:
        return -q
    return q


def _probe(e, rng):
    """Evaluate e at up to _PROBE_POINTS seeded random rational points.
    Returns 'nonzero' at the first sample that evalf(25, strict=True)
    certifies as a finite nonzero number, which proves e is not identically
    zero (Schwartz, JACM 1980); 'zero' if every evaluated sample was 0 or
    could not be told from 0 (PrecisionExhausted); 'mixed' if none
    evaluated, since samples giving nan, zoo or oo are skipped. Without
    free symbols every sample is the same, so e is evaluated once.
    """
    symbols = sorted(e.free_symbols, key=lambda s: s.name)
    evaluated = 0
    for _ in range(4 * _PROBE_POINTS if symbols else 1):
        if evaluated >= _PROBE_POINTS:
            break
        point = {s: _sample_value(s, rng) for s in symbols}
        try:
            val = complex(e.subs(point).evalf(25, strict=True))
        except PrecisionExhausted:
            val = 0
        except (TypeError, ValueError):
            continue
        if not cmath.isfinite(val):
            continue
        if val:
            return "nonzero"
        evaluated += 1
    return "zero" if evaluated else "mixed"


def _opaque_atoms(e):
    return e.atoms(AppliedUndef, sp.Derivative)


def zero_verdict(e) -> Verdict:
    """Tri-state zero test. Zero equivalence is undecidable in this
    fragment (Richardson, J. Symb. Logic 1968), so the answer may be
    INCONCLUSIVE; it is never a guess. A ring element and a rational are
    decided at once, and any other input that the exact domain over its
    own symbols takes (`_exact`, one lookup in sympy's cache for a
    `normalize`d value) by its normal form: 0 iff it vanishes identically
    (`_Domain`); parameters are only positive, nonzero or real, so a
    nonzero element never vanishes identically. Anything else is
    normalized by the general loop; 0 or 0.0 is ZERO, and opaque function
    symbols are split off structurally before any sampling. The rest is
    probed once, with a fixed seed: one certified nonzero sample gives
    NONZERO. Only when none did does `simplify` run, and it confirms ZERO
    when every sample vanished and sympy proves the simplified form zero.
    """
    if isinstance(e, PolyElement):
        return Verdict.NONZERO if e else Verdict.ZERO
    n = sp.sympify(e)
    if n.is_Rational:
        return Verdict.NONZERO if n else Verdict.ZERO
    if not n.is_Number:
        exact = _exact(n)
        if exact is not None:
            return Verdict.ZERO if exact == 0 else Verdict.NONZERO
        n = _normalize_loop(n)
    if n.is_Number and n.is_zero:
        return Verdict.ZERO
    atoms = _opaque_atoms(n)
    if atoms:
        return _structural_verdict(n, atoms)
    probe = _probe(n, random.Random(0x5EED))
    if probe == "nonzero":
        return Verdict.NONZERO
    if probe == "zero" and sp.simplify(sp.powsimp(n)).is_zero:
        return Verdict.ZERO
    return Verdict.INCONCLUSIVE


def _fold(verdicts) -> Verdict:
    """ZERO when every verdict is ZERO, NONZERO when any is NONZERO,
    INCONCLUSIVE otherwise."""
    verdicts = set(verdicts)
    if verdicts <= {Verdict.ZERO}:
        return Verdict.ZERO
    if Verdict.NONZERO in verdicts:
        return Verdict.NONZERO
    return Verdict.INCONCLUSIVE


def _structural_verdict(n, atoms):
    """Zero test in the presence of opaque function symbols: collect the
    coefficients of independent derivative/function markers and test each."""
    try:
        poly = sp.Poly(n, *sorted(atoms, key=sp.default_sort_key))
    except (sp.PolynomialError, sp.polys.polyerrors.GeneratorsNeeded):
        return Verdict.INCONCLUSIVE
    coeffs = poly.coeffs()
    if any(_opaque_atoms(c) for c in coeffs):
        return Verdict.INCONCLUSIVE
    return _fold(zero_verdict(c) for c in coeffs)


def is_zero(e) -> bool:
    """Boolean zero test; raises InconclusiveError when undecidable."""
    return all_zero((e,))


def all_zero(entries) -> bool:
    """True iff every entry vanishes identically; False as soon as one is
    provably nonzero. Raises InconclusiveError when none is nonzero and
    some entry cannot be decided."""
    undecided = None
    for e in entries:
        verdict = zero_verdict(e)
        if verdict is Verdict.NONZERO:
            return False
        if verdict is Verdict.INCONCLUSIVE and undecided is None:
            undecided = e
    if undecided is not None:
        raise InconclusiveError(
            f"cannot decide whether {undecided} vanishes identically")
    return True


# ---------------------------------------------------------------------------
# numeric evaluation and serialization

def eval_numeric(e, point, context: Context | None = None) -> float:
    """Double-precision evaluation at a full binding of the free symbols."""
    e = sp.sympify(e)
    if _opaque_atoms(e):
        raise DomainError("expression contains opaque function symbols")
    resolved = {}
    for k, val in dict(point).items():
        if isinstance(k, str):
            if context is None:
                raise ValueError("a Context is required to resolve names")
            k = context.symbol(k)
        resolved[k] = sp.Float(val)
    missing = e.free_symbols - set(resolved)
    if missing:
        names = ", ".join(sorted(s.name for s in missing))
        raise UnboundSymbolError(f"unbound symbols: {names}")
    val = e.subs(resolved).evalf()
    if val.has(sp.zoo, sp.oo, -sp.oo, sp.nan) or not val.is_real:
        raise DomainError(f"evaluation left the real domain: {val}")
    return float(val)


def to_dsl(e) -> str:
    """Canonical string form, parseable by parse_expr."""
    return _dsl(normalize(e))


def _dsl(n) -> str:
    """`to_dsl` of n in `normalize`d form, as model values and residuals are."""
    return sp.sstr(n, order="lex").replace("**", "^")
