"""Minimal expression kernel: parsing, normalization, differentiation and
a three-way zero test (zero, nonzero or inconclusive).

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
from sympy.core.function import AppliedUndef, UndefinedFunction
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement, PolyRing
from sympy.simplify.fu import TR5, TR8

__all__ = [
    "Context",
    "ExprError", "ParseError", "UndeclaredSymbolError",
    "UnboundSymbolError", "DomainError", "InconclusiveError",
    "Verdict", "parse_expr", "normalize", "differentiate", "substitute",
    "zero_verdict", "is_zero", "all_zero", "eval_numeric", "to_dsl",
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


class Context:
    """Declaration table: spatial variables, the time t, parameters, noise
    names and opaque function symbols.

    Parameters may carry assumptions ("positive" or "nonzero"), used both by
    sympy's simplifier and by the randomized zero-test probe when picking
    sample values.
    """

    def __init__(self, spatial=(), params=None, noises=(), opaque=()):
        self.t = sp.Symbol("t", real=True)
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
        """QQ[params, x, t], generators sorted by name as in `normalize`."""
        return PolyRing(sorted(self._symbols.values(), key=lambda s: s.name), QQ)

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


def _tokenize(text):
    """(kind, text, line, column) of each token of `text`, then EOF."""
    tokens, line, start = [], 1, 0  # start: the index where the line starts
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


def parse_expr(text: str, context: Context) -> sp.Expr:
    """Parse a DSL expression against the declared names in `context`.

    Raises ParseError (with line/column) on malformed input and
    UndeclaredSymbolError on free names missing from the context.
    Non-finite values raise ParseError too: a zero denominator in an
    exponent is reported where it stands, any other at column 1.
    """
    e = normalize(_Parser(_tokenize(text), context).parse())
    if e.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise ParseError("expression is not finite (a denominator is "
                         "identically zero)", 1, 1)
    return e


# ---------------------------------------------------------------------------
# normalization and calculus

def normalize(e) -> sp.Expr:
    """Canonical form within the supported fragment. Idempotent.

    Three paths, chosen from the input alone. A number (a Float included)
    is returned as it is: it is the loop's fixpoint. A ring element, or an
    input that `_ring_element` takes into the ring over its symbols,
    leaves through as_expr(). Any other input (a float, exp/sin/cos, sqrt,
    a denominator, an irrational constant or an opaque function) takes the
    general loop: expand, rewrite sin^2 -> 1 - cos^2, product-to-sum for
    sin*cos pairs, cancel rational parts, iterated to a fixpoint that
    sympy's cache remembers, so that normalizing a normalized value again
    is one cache hit. The ring and the loop give the same expression on a
    polynomial."""
    if isinstance(e, PolyElement):
        return e.as_expr()
    e = sp.sympify(e)
    if e.is_Number:
        return e
    p = _ring_element(e)
    return _normalize_loop(e) if p is None else p.as_expr()


def _ring_element(e, ring=None):
    """e in `ring`, a sparse polynomial ring over QQ, or None when e is not
    a float-free polynomial over QQ in its generators (QQ would turn 0.5
    into 1/2). Without a ring the generators are e's symbols sorted by
    name, a constant gives None and a ring element is its own answer. The
    element is 0 iff e vanishes identically. The one way into a ring: only
    sums, products, symbols, rationals and powers with an integer exponent
    above 1 reach from_expr, which admits just these (floats apart) and
    prints ring and input into the error it raises on anything else."""
    if isinstance(e, PolyElement):
        return e if ring in (None, e.ring) else None
    e = sp.sympify(e)
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
    if ring is None:
        if not symbols:
            return None
        ring = _own_ring(tuple(sorted(symbols, key=lambda s: s.name)))
    elif e.is_Rational:
        return ring.ground_new(QQ(e.p, e.q))
    elif not symbols <= set(ring.symbols):
        return None
    return ring.from_expr(e)


@lru_cache(maxsize=256)
def _own_ring(generators):
    """QQ[generators], built once per generator tuple: sympy may not reuse
    an equal ring, and building one costs far more than a conversion."""
    return PolyRing(generators, QQ)


def _normalize_loop(e):
    """The general path of `normalize`: `_normalize_step` to a fixpoint.
    The last step computed maps the output to itself and stays in sympy's
    cache, so normalizing the output again is one cache hit. The tests
    hold the polynomial path to the loop's output."""
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


def differentiate(e, v) -> sp.Expr:
    """Exact partial derivative; opaque function symbols yield derivative
    markers. Total on the fragment."""
    return normalize(sp.diff(sp.sympify(e), v))


def substitute(e, bindings) -> sp.Expr:
    """Simultaneous substitution followed by normalization.

    Keys may be symbols or opaque function symbols (values then
    being sympy Lambdas); derivative markers of substituted functions are
    evaluated.
    """
    e = sp.sympify(e)
    plain = {}
    funcs = {}
    for k, val in dict(bindings).items():
        if isinstance(k, UndefinedFunction):
            funcs[k] = val
        else:
            plain[k] = sp.sympify(val)
    if plain:
        e = e.subs(plain, simultaneous=True)
    if funcs:
        e = e.subs(funcs).doit()
    return normalize(e)


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
    INCONCLUSIVE; it is never a guess. A ring element, or a polynomial
    over QQ, is decided in its canonical ring: parameters are only
    positive, nonzero or real, so a nonzero polynomial never vanishes
    identically. Anything else is normalized; 0 or 0.0 is ZERO, and opaque
    function symbols are split off structurally before any sampling. The
    rest is probed once, with a fixed seed: one certified nonzero sample
    gives NONZERO. Only when none did does `simplify` run, and it confirms
    ZERO when every sample vanished and sympy proves the simplified form
    zero.
    """
    p = _ring_element(e)
    if p is not None:
        return Verdict.NONZERO if p else Verdict.ZERO
    n = normalize(e)
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
