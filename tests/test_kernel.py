import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.core.evalf import EvalfMixin

import stosym.kernel as kernel
from stosym.kernel import (Context, InconclusiveError, ParseError,
                           UndeclaredSymbolError, Verdict, _normalize_loop,
                           all_zero, differentiate, eval_numeric, is_zero,
                           normalize, parse_expr, substitute, to_dsl,
                           zero_verdict)
from conftest import random_expression, seeded_rng


@pytest.fixture
def ctx():
    return Context(spatial=("x", "y"), params={"k": "positive", "c": None},
                   noises=("w",))


class TestParsing:
    def test_precedence(self, ctx):
        x, y = ctx.spatial
        assert parse_expr("x + y*x^2", ctx) == x + y * x**2

    def test_power_forms(self, ctx):
        x = ctx.spatial[0]
        assert parse_expr("(x^2)^3", ctx) == x**6
        assert parse_expr("x^(1/2)", ctx) == sp.sqrt(x)
        assert parse_expr("x^-2", ctx) == x**-2
        # exponents are literal integers or rationals, never chained
        with pytest.raises(ParseError):
            parse_expr("x^2^3", ctx)

    def test_unary_minus(self, ctx):
        x = ctx.spatial[0]
        assert parse_expr("-x^2", ctx) == -x**2
        assert parse_expr("2*-x", ctx) == -2 * x

    def test_rational_constants(self, ctx):
        assert parse_expr("1/3 + 1/6", ctx) == sp.Rational(1, 2)

    def test_functions(self, ctx):
        x = ctx.spatial[0]
        t = ctx.t
        e = parse_expr("exp(-k^2*t) * sin(x) + sqrt(2*k)", ctx)
        k = ctx.symbol("k")
        assert e == sp.exp(-k**2 * t) * sp.sin(x) + sp.sqrt(2 * k)

    def test_undeclared_symbol(self, ctx):
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_expr("x + q", ctx)
        assert err.value.name == "q"
        assert err.value.col == 5

    def test_syntax_error_position(self, ctx):
        with pytest.raises(ParseError) as err:
            parse_expr("x + * y", ctx)
        assert err.value.col == 5

    def test_unbalanced_parens(self, ctx):
        with pytest.raises(ParseError):
            parse_expr("(x + y", ctx)

    @pytest.mark.parametrize("text,col", [
        ("x^(1/0)", 6), ("x^(3/(0))", 6), ("y/0", 1), ("1/(x - x)", 1),
        ("0^-1", 1), ("x/(sin(x)^2 + cos(x)^2 - 1)", 1),
    ])
    def test_non_finite_constant_rejected(self, ctx, text, col):
        with pytest.raises(ParseError) as err:
            parse_expr(text, ctx)
        assert (err.value.line, err.value.col) == (1, col)

    def test_opaque_function_call(self):
        octx = Context(spatial=("x",), opaque=("g",))
        x, t = octx.spatial[0], octx.t
        assert parse_expr("g(x, t) + 1", octx) == octx.opaque["g"](x, t) + 1

    def test_undeclared_function_call(self, ctx):
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_expr("x + h(x)", ctx)
        assert (err.value.name, err.value.line, err.value.col) == ("h", 1, 5)

    def test_error_on_second_line(self, ctx):
        with pytest.raises(ParseError) as err:
            parse_expr("x +\n  * y", ctx)
        assert (err.value.line, err.value.col) == (2, 3)

    def test_noise_names_not_expressions(self, ctx):
        with pytest.raises(UndeclaredSymbolError):
            parse_expr("w + 1", ctx)


class TestNormalize:
    def test_idempotent_on_random_expressions(self, ctx):
        rng = seeded_rng(0)
        for _ in range(50):
            e = random_expression(rng, ctx)
            ne = normalize(e)
            assert normalize(ne) == ne

    def test_cancellation(self, ctx):
        x = ctx.spatial[0]
        assert normalize((x**2 - 1) / (x - 1) - x - 1) == 0

    def test_trig_pythagoras(self, ctx):
        x = ctx.spatial[0]
        assert normalize(sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1) == 0


_POLY_CTX = Context(spatial=("x", "y"), params={"k": "positive", "c": None})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_polynomial_path_matches_loop(seed):
    e = random_expression(seeded_rng(seed), _POLY_CTX, functions=False)
    assert normalize(e) == _normalize_loop(sp.sympify(e))


_LAURENT_CTX = Context(spatial=("x", "y"),
                       params={"a": "positive", "b": "positive"})


def _laurent_term(rng):
    """c a^i b^j x^k t^l times a radical and exp(r t): i, j in [-2, 2],
    the radical one of sqrt(a), 1/sqrt(b), sqrt(2), sqrt(3) and sqrt(6),
    the rate one of a few in the parameters and radicals."""
    (x, y), t = _LAURENT_CTX.spatial, _LAURENT_CTX.t
    a, b = _LAURENT_CTX.symbol("a"), _LAURENT_CTX.symbol("b")
    radical = rng.choice([1, sp.sqrt(a), 1 / sp.sqrt(b), sp.sqrt(2),
                          sp.sqrt(3), sp.sqrt(6)])
    rate = rng.choice([0, 0, 1, -2, a, -a**2, a / b, sp.sqrt(2), sp.sqrt(b)])
    return (sp.Rational(rng.randint(-9, 9), rng.randint(1, 4))
            * a**rng.randint(-2, 2) * b**rng.randint(-2, 2)
            * rng.choice([1, x, y, x * y, x**2]) * rng.choice([1, t])
            * radical * sp.exp(rate * t))


def _laurent(rng, terms=3):
    return sp.Add(*(_laurent_term(rng) for _ in range(rng.randint(1, terms))))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_domain_path_matches_loop(rng):
    """On a Laurent polynomial in positive parameters with radicals and
    exp(c t), and on a product of two, the exact domain gives the loop's
    expression, and gives it back on its own output."""
    e = _laurent(rng)
    if rng.random() < 0.5:
        e = e * _laurent(rng, 2)
    n = kernel._exact(e)
    assert n is not None
    assert n == _normalize_loop(e)
    assert kernel._exact(n) == n


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_domain_decides_equal_forms_without_probe(rng):
    """(u + v)^2 against u^2 + 2 u v + v^2, with u and v such sums, and
    exp(r t) exp(s t) against exp((r + s) t): the difference of two equal
    forms is decided ZERO in the domain, and a perturbed one NONZERO,
    without the probe."""
    u, v = _laurent(rng, 2), _laurent(rng, 2)
    t, a = _LAURENT_CTX.t, _LAURENT_CTX.symbol("a")

    def fail(*args, **kwargs):
        raise AssertionError("probed or simplified")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_probe", fail)
        mp.setattr(sp, "simplify", fail)
        assert zero_verdict((u + v)**2 - u**2 - 2 * u * v - v**2) \
            is Verdict.ZERO
        assert zero_verdict(sp.exp(a * t) * sp.exp(-t / a) * u
                            - sp.exp((a - 1 / a) * t) * u) is Verdict.ZERO
        assert zero_verdict((u + v)**2 - u**2 - v**2 - u * v) is (
            Verdict.ZERO if u * v == 0 else Verdict.NONZERO)


class TestNormalizePaths:
    """Polynomials over QQ and the other inputs of the exact domain skip
    the expand/cancel loop; everything else keeps it, with its output
    unchanged."""

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        calls = []

        def spy(e):
            calls.append(e)
            return _normalize_loop(e)
        monkeypatch.setattr(kernel, "_normalize_loop", spy)
        return calls

    def test_polynomial_skips_loop(self, ctx, loop_calls):
        x, y = ctx.spatial
        k = ctx.symbol("k")
        assert normalize((x + k * y) ** 2 / 3) == (
            x**2 / 3 + 2 * k * x * y / 3 + k**2 * y**2 / 3)
        assert loop_calls == []

    @pytest.mark.parametrize("number", [
        sp.Integer(0), sp.Integer(-7), sp.Rational(3, 4), sp.Float(0.1)],
        ids=["zero", "integer", "rational", "float"])
    def test_number_is_returned_unchanged(self, loop_calls, number):
        out = normalize(number)
        assert out == number and type(out) is type(number)
        assert loop_calls == []

    def test_float_stays_float(self, ctx, loop_calls):
        x = ctx.spatial[0]
        assert normalize(sp.Float(0.5) * x).has(sp.Float)
        assert loop_calls

    @pytest.mark.parametrize("build,expected", [
        (lambda x, t, a, g: x / a, lambda x, t, a, g: x / a),
        (lambda x, t, a, g: sp.exp(t + 1) * x,
         lambda x, t, a, g: sp.E * x * sp.exp(t)),
        (lambda x, t, a, g: sp.sqrt(x) * a, lambda x, t, a, g: a * sp.sqrt(x)),
        (lambda x, t, a, g: sp.sin(x) ** 2,
         lambda x, t, a, g: sp.Rational(1, 2) - sp.cos(2 * x) / 2),
        (lambda x, t, a, g: g(x, t) * x, lambda x, t, a, g: x * g(x, t)),
    ], ids=["denominator", "shifted_exp", "sqrt_x", "sin2", "opaque"])
    def test_loop_inputs(self, loop_calls, build, expected):
        """A parameter only real in a denominator, exp(t + 1), sqrt of a
        variable, sin/cos and opaque functions lie outside the exact
        domain."""
        octx = Context(spatial=("x",), params={"a": None}, opaque=("g",))
        args = (octx.spatial[0], octx.t, octx.symbol("a"), octx.opaque["g"])
        assert normalize(build(*args)) == expected(*args)
        assert loop_calls

    @pytest.mark.parametrize("build,expected", [
        (lambda x, t, a, b: sp.sqrt(2) * x, lambda x, t, a, b: sp.sqrt(2) * x),
        (lambda x, t, a, b: x / a + x / b**2,
         lambda x, t, a, b: x / a + x / b**2),
        (lambda x, t, a, b: sp.exp(t) * x, lambda x, t, a, b: x * sp.exp(t)),
        (lambda x, t, a, b: sp.sqrt(6) * sp.sqrt(b) * (x + 1 / sp.sqrt(b)),
         lambda x, t, a, b: sp.sqrt(6) * sp.sqrt(b) * x + sp.sqrt(6)),
        (lambda x, t, a, b: sp.exp(a * t) * sp.exp(-a * t + t / b**2) * a,
         lambda x, t, a, b: a * sp.exp(t / b**2)),
    ], ids=["sqrt2", "denominator", "exp", "radicals", "rates"])
    def test_domain_inputs(self, loop_calls, build, expected):
        """Inverses of nonzero parameters, square roots of positive ones
        and of integers, and exp(c t) lie in the exact domain."""
        octx = Context(spatial=("x",), params={"a": "nonzero",
                                               "b": "positive"})
        args = (octx.spatial[0], octx.t, octx.symbol("a"), octx.symbol("b"))
        assert normalize(build(*args)) == expected(*args)
        assert loop_calls == []


class TestNormalizeCache:
    """The loop's last computed step maps its output to itself and stays in
    sympy's cache, so normalizing a normalized value again computes
    nothing until the cache is cleared."""

    def test_fixpoint_is_a_cache_hit(self, ctx):
        from sympy.core.cache import clear_cache
        x, k = ctx.spatial[0], ctx.symbol("k")
        raw = sp.sqrt(2) * (x + k) ** 2 / (k + 1) + sp.sin(x) ** 2
        clear_cache()
        n = normalize(raw)
        computed = kernel._normalize_step.cache_info().misses
        assert computed > 0
        assert normalize(n) == n
        assert kernel._normalize_step.cache_info().misses == computed
        clear_cache()
        assert normalize(n) == n
        assert kernel._normalize_step.cache_info().misses > 0

    def test_domain_fixpoint_is_a_cache_hit(self, ctx):
        """The exact domain's normal form of an input and of its output
        stay in sympy's cache: normalizing the output, or deciding it, again
        converts nothing."""
        from sympy.core.cache import clear_cache
        x, k, t = ctx.spatial[0], ctx.symbol("k"), ctx.t
        raw = sp.sqrt(2) * (x + 1 / k) ** 2 * sp.exp(k * t) * sp.exp(t)
        clear_cache()
        n = normalize(raw)
        assert kernel._exact.cache_info().misses == 2
        assert normalize(n) == n
        assert zero_verdict(n) is Verdict.NONZERO
        assert kernel._exact.cache_info().misses == 2

    @pytest.mark.parametrize("order", [(0.5, sp.S.Half), (sp.S.Half, 0.5)],
                             ids=["float-first", "rational-first"])
    @pytest.mark.parametrize("base", ["x", "exp(x) + x"])
    def test_float_and_rational_keep_their_form(self, ctx, order, base):
        """x + 0.5 and x + 1/2 are distinct cache keys, in either order,
        on the loop path (exp(x) + x + c) too."""
        from sympy.core.cache import clear_cache
        e = sp.sympify(base, locals={"x": ctx.spatial[0]})
        alone = {}
        for c in order:
            clear_cache()
            alone[c] = sp.srepr(normalize(e + c))
        assert alone[0.5] != alone[sp.S.Half]
        clear_cache()
        for c in order:
            assert sp.srepr(normalize(e + c)) == alone[c]


class TestCalculus:
    def test_partials_commute(self, ctx):
        rng = seeded_rng(1)
        x, y = ctx.spatial
        for _ in range(30):
            e = random_expression(rng, ctx)
            one = differentiate(differentiate(e, x), y)
            other = differentiate(differentiate(e, y), x)
            assert normalize(one - other) == 0

    def test_linearity(self, ctx):
        rng = seeded_rng(2)
        x = ctx.spatial[0]
        for _ in range(30):
            a = random_expression(rng, ctx)
            b = random_expression(rng, ctx)
            lhs = differentiate(3 * a - 2 * b, x)
            rhs = 3 * differentiate(a, x) - 2 * differentiate(b, x)
            assert normalize(lhs - rhs) == 0

    def test_substitute(self, ctx):
        x, y = ctx.spatial
        assert substitute(x * y, {x: y}) == y**2

    def test_substitute_opaque_function(self):
        octx = Context(spatial=("x",), opaque=("g",))
        x = octx.spatial[0]
        g = octx.opaque["g"]
        e = differentiate(g(x, octx.t), x)
        bound = substitute(e, {g: sp.Lambda((x, octx.t), x**2 * octx.t)})
        assert normalize(bound - 2 * x * octx.t) == 0


class TestZeroTest:
    def test_difference_is_zero(self, ctx):
        rng = seeded_rng(3)
        for _ in range(30):
            e = random_expression(rng, ctx)
            assert is_zero(e - e)

    def test_nonzero(self, ctx):
        x = ctx.spatial[0]
        assert zero_verdict(x**2 + 1) is Verdict.NONZERO

    def test_positive_parameter_awareness(self, ctx):
        k = ctx.symbol("k")
        assert zero_verdict(sp.sqrt(k**2) - k) is Verdict.ZERO

    def test_probe_consistent_with_zero(self, ctx):
        # probing may never call a provably zero expression nonzero
        rng = seeded_rng(4)
        for _ in range(10):
            e = random_expression(rng, ctx)
            zero = sp.expand((e + 1) ** 2 - e**2 - 2 * e - 1)
            assert zero_verdict(zero) is Verdict.ZERO

    def test_radical_coefficient_may_vanish(self, ctx):
        # sqrt(3 + 2 sqrt(2)) = 1 + sqrt(2): a polynomial in x whose
        # coefficient is algebraic is not canonical, and this one is 0
        x = ctx.spatial[0]
        c = sp.sqrt(3 + 2 * sp.sqrt(2)) - 1 - sp.sqrt(2)
        assert zero_verdict(c * x**2) is Verdict.ZERO

    def test_exact_zero_constant_is_not_nonzero(self, ctx):
        # cos(pi/7) - cos(2 pi/7) + cos(3 pi/7) = 1/2, which sympy cannot
        # prove and strict evalf cannot tell from 0
        x, t, k = ctx.spatial[0], ctx.t, ctx.symbol("k")
        c = (sp.cos(sp.pi / 7) - sp.cos(2 * sp.pi / 7) + sp.cos(3 * sp.pi / 7)
             - sp.Rational(1, 2))
        assert zero_verdict(c) is not Verdict.NONZERO
        assert zero_verdict(sp.expand(c * sp.exp(k**2 * t * x))) \
            is not Verdict.NONZERO

    def test_zero_float_is_zero_without_sampling(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sampled or simplified")
        monkeypatch.setattr(sp, "simplify", fail)
        monkeypatch.setattr(kernel, "_probe", fail)
        assert zero_verdict(sp.Float(0.0)) is Verdict.ZERO
        assert zero_verdict(0.0) is Verdict.ZERO

    def test_constant_is_evaluated_once(self, monkeypatch):
        """Every sample of an input without free symbols is the same
        point, so the probe evaluates it once."""
        c = (sp.cos(sp.pi / 7) - sp.cos(2 * sp.pi / 7) + sp.cos(3 * sp.pi / 7)
             - sp.Rational(1, 2))
        calls = []
        evalf = EvalfMixin.evalf

        def counting(self, *args, **kwargs):
            if self == c:
                calls.append(self)
            return evalf(self, *args, **kwargs)
        monkeypatch.setattr(EvalfMixin, "evalf", counting)
        assert kernel._probe(c, kernel.random.Random(0)) == "zero"
        assert len(calls) == 1

    def test_small_nonzero_value_is_nonzero(self, ctx):
        assert zero_verdict(sp.exp(ctx.t) / 10**9) is Verdict.NONZERO

    def test_float_residuals_are_nonzero(self, ctx):
        x = ctx.spatial[0]
        for e in (0.5 * x, 1e-20 * x,
                  sp.Float(0.1) + sp.Float(0.2) - sp.Float(0.3)):
            assert zero_verdict(e) is Verdict.NONZERO

    @pytest.mark.parametrize("text", [
        "-y*exp(k^2*t)", "t/2 - x^2/(2*s0^2)", "-cos(t)",
        "-sqrt(2)*sqrt(s1) + sqrt(2)*s1/sqrt(s2)"])
    def test_nonzero_without_simplify(self, text, monkeypatch):
        """Manifest residuals off the polynomial ring: one certified sample
        decides them, so `simplify` never runs."""
        pctx = Context(spatial=("x", "y"),
                       params=dict.fromkeys(("k", "s0", "s1", "s2"),
                                            "positive"))
        residual = parse_expr(text, pctx)

        def fail(*args, **kwargs):
            raise AssertionError("simplify called")
        monkeypatch.setattr(sp, "simplify", fail)
        assert zero_verdict(residual) is Verdict.NONZERO

    @pytest.mark.parametrize("value", [sp.zoo, sp.nan, sp.oo])
    def test_non_finite_sample_is_no_evidence(self, value):
        assert kernel._probe(value, kernel.random.Random(0)) != "nonzero"

    def test_polynomials_decided_in_the_ring(self, ctx, monkeypatch):
        x, y = ctx.spatial
        k = ctx.symbol("k")
        monkeypatch.setattr(kernel, "normalize", None)
        assert zero_verdict((x + k * y) ** 2 - x**2 - 2 * k * x * y
                            - k**2 * y**2) is Verdict.ZERO
        assert zero_verdict(x * y / 3 - k) is Verdict.NONZERO

    def test_opaque_coefficients_decided_one_by_one(self):
        """An expression with opaque functions is split into the
        coefficients of its function and derivative markers before any
        sampling, which could not evaluate g."""
        octx = Context(spatial=("x",), opaque=("g",))
        x = octx.spatial[0]
        g = octx.opaque["g"](x)
        c = sp.sqrt(3 + 2 * sp.sqrt(2)) - 1 - sp.sqrt(2)
        assert zero_verdict(x * g) is Verdict.NONZERO
        assert zero_verdict(x * g + sp.Derivative(g, x)) is Verdict.NONZERO
        assert zero_verdict(g * c) is Verdict.ZERO

    def test_is_zero_raises_on_inconclusive(self):
        octx = Context(spatial=("x",), opaque=("g",))
        x = octx.spatial[0]
        g = octx.opaque["g"]
        with pytest.raises(InconclusiveError):
            is_zero(sp.sin(g(x)) ** 3 - sp.cos(g(x)) + sp.Rational(1, 7))


class TestSerialization:
    def test_round_trip(self, ctx):
        rng = seeded_rng(5)
        for _ in range(30):
            e = normalize(random_expression(rng, ctx))
            back = parse_expr(to_dsl(e), ctx)
            assert normalize(back - e) == 0

    def test_caret_notation(self, ctx):
        x = ctx.spatial[0]
        assert "^" in to_dsl(x**3)
        assert "**" not in to_dsl(x**3)


def test_eval_numeric(ctx):
    x, y = ctx.spatial
    k = ctx.symbol("k")
    val = eval_numeric(k * x + y**2, {x: 2.0, y: 3.0, k: 0.5})
    assert val == pytest.approx(10.0)


# "²" is a digit to str.isdigit but not to int()
_PARSE_TOKENS = ("x", "t", *"0123456789", "²", ".", "+", "-", "*", "/", "^",
                 "(", ")", "sin", "cos", "exp", "sqrt")


@st.composite
def _dsl_text(draw, max_len=12):
    text = ""
    for token in draw(st.lists(st.sampled_from(_PARSE_TOKENS), max_size=max_len)):
        if len(text) + len(token) > max_len:
            break
        text += token
    return text


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_dsl_text())
def test_parse_accepts_or_raises_parse_error(text):
    try:
        parse_expr(text, Context(spatial=("x",)))
    except ParseError:
        pass


class TestParserLimits:
    def test_builtin_arity(self, ctx):
        with pytest.raises(ParseError, match="one argument"):
            parse_expr("sin(x, y)", ctx)

    def test_exponent_bound(self, ctx):
        x = ctx.spatial[0]
        assert parse_expr("x^64", ctx) == x**64
        assert parse_expr("x^(-64/64)", ctx) == 1 / x
        assert parse_expr("(x^8)^8", ctx) == x**64
        for text in ("(x+1)^64", "((x+1)^8+1)^8"):
            assert sp.degree(parse_expr(text, ctx), x) == 64
        # sympy folds a power of a power into one exponent, and expansion
        # reaches deg(base) times the exponent
        for text in ("9^9999999999", "x^65", "x^(1/65)", "x^-99",
                     "((x+1)^64)^64", "(((x+1)^64)^64)^64", "(x^64*t)^64",
                     "((x+1)^-64)^2", "((x+1)^32+1)^32", "((x+1)^16+1)^16",
                     "((x+1)^8+1)^9", "(x^(3/2))^64", "(x*y)^33"):
            with pytest.raises(ParseError, match="larger than 64"):
                parse_expr(text, ctx)
        # reported at the outer exponent
        with pytest.raises(ParseError, match=r"\(line 1, column 12\)$"):
            parse_expr("((x+1)^64)^64", ctx)
        with pytest.raises(ParseError, match=r"\(line 1, column 14\)$"):
            parse_expr("((x+1)^32+1)^32", ctx)
        # a number has degree 0: an evaluated power of one is bounded by
        # its bits, and a constant sum holding a radical has degree 1
        r2 = sp.sqrt(2)
        for text, value in (("9^64", sp.Integer(9)**64),
                            ("2^64*x", 2**64 * x),
                            ("(1/2)^64", sp.Rational(1, 2**64)),
                            ("(2*x)^32", 2**32 * x**32),
                            ("(sqrt(2)*x)^64", 2**32 * x**64),
                            ("(sqrt(2)+1)^64", sp.expand((r2 + 1)**64))):
            assert parse_expr(text, ctx) == value
        for text, message in (("(9^64)^64", "power of 12992 bits is larger "
                               r"than 4096 \(line 1, column 8\)$"),
                              ("((9^64)^64)^64", r"\(line 1, column 9\)$"),
                              ("((sqrt(2)+1)^64)^64", "degree 4096 is larger "
                               r"than 64 \(line 1, column 18\)$")):
            with pytest.raises(ParseError, match=message):
                parse_expr(text, ctx)

    def test_product_degree_bound(self, ctx):
        """The degrees of a product's factors add up to the bound, as the
        degree of a power does; the factor that crosses it is named."""
        x, y = ctx.spatial[:2]
        assert parse_expr("x^32*y^32", ctx) == x**32 * y**32
        assert sp.degree(parse_expr("(x+1)^64", ctx), x) == 64
        for text, message in (("*".join(["(x+1)^64"] * 128),
                               r"degree 128 is larger than 64 "
                               r"\(line 1, column 10\)$"),
                              ("(x+1)^64*(x+1)", r"degree 65 is larger than "
                               r"64 \(line 1, column 10\)$")):
            with pytest.raises(ParseError, match=message):
                parse_expr(text, ctx)


class TestAllZero:
    """`all_zero` keeps the three-way verdict: False on the first provably
    nonzero entry, InconclusiveError only when nothing is nonzero and some
    entry is undecided."""

    @pytest.fixture
    def verdicts(self, monkeypatch):
        import stosym.kernel as kernel
        table = {}
        calls = []

        def fake(e):
            calls.append(e)
            return table[e]
        monkeypatch.setattr(kernel, "zero_verdict", fake)
        return table, calls

    def test_all_zero(self, verdicts):
        table, _ = verdicts
        table.update({1: Verdict.ZERO, 2: Verdict.ZERO})
        assert all_zero([1, 2]) is True

    def test_nonzero_beats_undecided(self, verdicts):
        table, calls = verdicts
        table.update({1: Verdict.INCONCLUSIVE, 2: Verdict.NONZERO,
                      3: Verdict.ZERO})
        assert all_zero([1, 2, 3]) is False
        assert calls == [1, 2]

    def test_undecided_raises(self, verdicts):
        table, _ = verdicts
        table.update({1: Verdict.ZERO, 2: Verdict.INCONCLUSIVE})
        with pytest.raises(InconclusiveError, match="2"):
            all_zero([1, 2])

    def test_real_zero_test(self, ctx):
        x, y = ctx.spatial
        assert all_zero([sp.sin(x) ** 2 + sp.cos(x) ** 2 - 1, 0])
        assert not all_zero([0, x - y])
