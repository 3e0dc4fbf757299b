import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from stosym.kernel import (Context, ParseError, UndeclaredSymbolError,
                           normalize, to_dsl)
from stosym.kpz import KpzChain, kpz_ito
from stosym.model import DiscreteMap, ItoSystem, VectorField, apply_discrete
from stosym.dsl import (candidate_from_dict, candidate_to_dict, parse_candidate,
                        parse_system, system_from_dict, system_to_dict,
                        to_cand, to_sde)
from conftest import random_expression

PAIR = """
system pair
vars x y
noises w1 w2
sigma x w1 = 1
sigma y w2 = 1
"""


@pytest.fixture
def pair():
    return parse_system(PAIR)


class TestSystemParsing:
    def test_basic(self):
        ito = parse_system("""
        # comment and blank lines are skipped
        system demo
        params k : positive, c
        vars x y
        noises w
        drift x = y
        drift y = -k^2 * y + c
        sigma y w = sqrt(2) * k
        """)
        assert ito.name == "demo"
        x, y = ito.context.spatial
        k, c = ito.context.symbol("k"), ito.context.symbol("c")
        assert ito.f == (y, normalize(-k**2 * y + c))
        assert ito.sigma[0] == (0,)
        assert normalize(ito.sigma[1][0] - sp.sqrt(2) * k) == 0

    def test_unlisted_entries_default_to_zero(self, pair):
        assert pair.f == (0, 0)
        assert pair.sigma == ((1, 0), (0, 1))

    def test_missing_vars(self):
        with pytest.raises(ParseError):
            parse_system("noises w\nsigma x w = 1\n")

    def test_duplicate_drift(self):
        with pytest.raises(ParseError) as err:
            parse_system("vars x\nnoises w\ndrift x = 1\ndrift x = 2\n")
        assert err.value.line == 4

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_system("vars x\nnoises w\nnoise x w = 1\n")

    def test_undeclared_symbol_line(self):
        with pytest.raises(UndeclaredSymbolError) as err:
            parse_system("vars x\nnoises w\n\ndrift x = q\n")
        assert err.value.line == 4

    def test_unknown_coefficient_target(self):
        with pytest.raises(ParseError):
            parse_system("vars x\nnoises w\ndrift z = 1\n")

    @pytest.mark.parametrize("head", ["noises", "vars"])
    def test_repeated_name_in_declaration(self, head):
        """`noises w w` would give two channels, the second one unreachable
        by `sigma x w` lines."""
        text = {"noises": "vars x\nnoises w w\nsigma x w = 1\n",
                "vars": "vars x x\nnoises w\n"}[head]
        with pytest.raises(ParseError, match="repeats") as err:
            parse_system(text)
        assert err.value.line == (2 if head == "noises" else 1)

    def test_parameter_repeated_on_a_later_line(self):
        """A repeat on a second params line does not override the first
        declaration's assumption."""
        with pytest.raises(ParseError, match="duplicate parameter 'a'") as err:
            parse_system("params a : positive\nparams a\nvars x\nnoises w\n")
        assert err.value.line == 2


class TestCandidateParsing:
    def test_vector_field(self, pair):
        c = parse_candidate("tau = t^2\nxi x = x*t\n", pair)
        assert isinstance(c, VectorField)
        assert c.xi[1] == 0
        assert c.beta is None

    def test_beta(self, pair):
        c = parse_candidate("beta = -x\n", pair)
        assert c.beta == -pair.context.spatial[0]

    def test_w_symmetry_antisymmetric_fill(self, pair):
        c = parse_candidate("xi x = y\nxi y = -x\nB[1][2] = 1\n", pair)
        assert c.Bmat is not None
        assert c.Bmat == ((0, 1), (-1, 0))

    def test_inconsistent_b_entries(self, pair):
        with pytest.raises(ParseError):
            parse_candidate("B[1][2] = 1\nB[2][1] = 1\n", pair)

    def test_b_entries_antisymmetric_up_to_radicals(self, pair):
        c = parse_candidate("B[1][2] = sqrt(3 + 2*sqrt(2))\n"
                            "B[2][1] = -1 - sqrt(2)\n", pair)
        assert c.Bmat is not None

    def test_discrete_map_defaults(self, pair):
        c = parse_candidate("phi x = -x\n", pair)
        assert isinstance(c, DiscreteMap)
        assert c.phi == (-pair.context.spatial[0], pair.context.spatial[1])
        assert c.R == ((1, 0), (0, 1))

    def test_map_and_field_mix_rejected(self, pair):
        with pytest.raises(ParseError):
            parse_candidate("phi x = -x\ntau = 1\n", pair)

    def test_extra_params(self, pair):
        c = parse_candidate("params eps\nxi x = eps * x\n", pair)
        eps = c.context.symbol("eps")
        assert c.xi[0] == eps * pair.context.spatial[0]

    def test_error_line_number(self, pair):
        with pytest.raises(ParseError) as err:
            parse_candidate("tau = 1\nxi z = 1\n", pair)
        assert err.value.line == 2

    @pytest.mark.parametrize("text,message,line", [
        ("candidate rot\nxi x = y\nB[1][2] = 1\nB[2][1] = 1\n",
         "not antisymmetric", 4),
        ("candidate c\nB[1][2] = 1\nbeta = -x\n", "beta is not supported", 3),
        ("beta = -x\n# mixer\nB[1][2] = 1\n", "beta is not supported", 3),
        ("candidate c\nphi x = -x\ntau = 1\n", "finite map cannot", 3),
        ("xi y = 1\n\nR = [[0, 1], [1, 0]]\n", "finite map cannot", 3),
    ], ids=["antisymmetry", "beta-after-B", "B-after-beta", "field-after-map",
            "map-after-field"])
    def test_conflict_reported_at_later_entry(self, pair, text, message,
                                              line):
        """A conflict between two entries names the line of the later
        one."""
        with pytest.raises(ParseError, match=message) as err:
            parse_candidate(text, pair)
        assert err.value.line == line

    def test_parameter_repeated_on_a_later_line(self, pair):
        with pytest.raises(ParseError, match="duplicate parameter 'eps'") as err:
            parse_candidate("params eps\nparams eps : positive\nxi x = eps\n",
                            pair)
        assert err.value.line == 2

    @pytest.mark.parametrize("literal", [
        "[[0, 1] junk [1, 0]]", "[[0, 1]], [[1, 0]]", "[[0, 1] [1, 0]]",
        "[[0, 1], [1, 0],]"])
    def test_text_around_matrix_rows(self, pair, literal):
        """Nothing but single commas may stand between the rows of R."""
        with pytest.raises(ParseError, match="matrix literal") as err:
            parse_candidate(f"phi x = -x\nR = {literal}\n", pair)
        assert err.value.line == 2


@pytest.mark.parametrize("kind,text,message,line", [
    ("system", "params a,\nvars x\nnoises w\n",
     "empty parameter declaration", 1),
    ("system", "params a : big\nvars x\nnoises w\n",
     "unknown assumption 'big'", 1),
    ("system", "vars x\nparams 2a\nnoises w\n",
     "invalid parameter name '2a'", 2),
    ("system", "system my heat\nvars x\nnoises w\n",
     "system name must be an identifier", 1),
    ("system", "vars x\nnoises w\nvars y\n", "duplicate vars declaration", 3),
    ("system", "vars x\nnoises w\nnoises v\n",
     "duplicate noises declaration", 3),
    ("system", "vars x\n\ndrift x = 1\n", "missing noises declaration", 1),
    ("system", "vars x\nnoises w\ndrift x 1\n",
     "expected '=' in drift line", 3),
    ("system", "vars x\nnoises w\nsigma x = 1\n",
     "sigma expects a variable name and a noise name", 3),
    ("system", "vars x\nnoises w\nsigma x w = 1\n\nsigma x w = 2\n",
     "duplicate sigma entry for 'x w'", 5),
    ("candidate", "candidate my field\n",
     "candidate name must be an identifier", 1),
    ("candidate", "tau = 1\nxi x 1\n", "expected '=' in candidate entry", 2),
    ("candidate", "tau = 1\n\ntau = t\n", "duplicate tau entry", 3),
    ("candidate", "R = [[1, 0], [0]]\n", "matrix rows have unequal lengths",
     1),
    ("candidate", "xi x = 1\nxi x = y\n", "duplicate xi entry for 'x'", 2),
    ("candidate", "B[1] = 1\n", "B entries are addressed as B[i][j]", 1),
    ("candidate", "B[1][3] = 1\n",
     "B indices out of range or on the diagonal", 1),
    ("candidate", "B[1][2] = 1\nB[1][2] = 2\n",
     "duplicate B entry B[1][2]", 2),
    ("candidate", "tau = 1\neta = 0\n", "unknown candidate directive 'eta'",
     2),
], ids=["empty-param", "assumption", "param-name", "system-name",
        "duplicate-vars", "duplicate-noises", "no-noises", "no-equals",
        "sigma-fields", "duplicate-sigma", "candidate-name",
        "candidate-no-equals", "duplicate-tau", "ragged-R", "duplicate-xi",
        "B-index", "B-range", "duplicate-B", "candidate-directive"])
def test_parse_error_message_and_line(kind, text, message, line):
    """Each rejection of a malformed system or candidate line names the
    problem and the line it stands on."""
    with pytest.raises(ParseError) as err:
        if kind == "system":
            parse_system(text)
        else:
            parse_candidate(text, parse_system(PAIR))
    assert str(err.value) == f"{message} (line {line}, column 1)"


@pytest.mark.parametrize("kind,text,message,column", [
    ("system", "vars x\nnoises w\ndrift x = ((x+1)^32+1)^32\n",
     "degree 1024 is larger than 64", 24),
    ("system", "vars x\nnoises w\ndrift x = 1 + y\n",
     "undeclared symbol 'y'", 15),
    ("system", "vars x\nnoises w\n  \tsigma x w = 2 * y  # noise\n",
     "undeclared symbol 'y'", 20),
    ("candidate", "xi x = 1 + z\n", "undeclared symbol 'z'", 12),
    ("candidate", "phi x = -x\n  R = [[0, 1], [1, 1 + z]]\n",
     "undeclared symbol 'z'", 24),
], ids=["exponent", "drift", "indented-sigma", "xi", "R-entry"])
def test_parse_error_column_in_line(kind, text, message, column):
    """An error inside an expression names its column in the file's line,
    leading whitespace included."""
    with pytest.raises(ParseError) as err:
        if kind == "system":
            parse_system(text)
        else:
            parse_candidate(text, parse_system(PAIR))
    line = text.count("\n")
    assert str(err.value) == f"{message} (line {line}, column {column})"


class TestRoundTrips:
    def test_system_text(self, pair):
        again = parse_system(to_sde(pair))
        assert again.f == pair.f and again.sigma == pair.sigma

    def test_system_json(self, pair):
        again = system_from_dict(system_to_dict(pair))
        assert again.f == pair.f and again.sigma == pair.sigma
        assert again.name == pair.name

    @pytest.mark.parametrize("text", [
        "tau = t^2\nxi x = x*t\nbeta = -t\n",
        "xi x = y\nxi y = -x\nB[1][2] = 1\n",
        "phi x = -x\nphi y = -y\nR = [[-1, 0], [0, -1]]\n",
        "params eps\nxi x = eps * exp(-2*t)\n",
    ])
    def test_candidate_text_and_json(self, pair, text):
        c = parse_candidate(text, pair)
        again = parse_candidate(to_cand(c, base_context=pair.context), pair)
        assert type(again) is type(c)
        d = candidate_to_dict(c, base_context=pair.context)
        from_json = candidate_from_dict(d, pair)
        for obj in (again, from_json):
            if isinstance(c, DiscreteMap):
                assert obj.phi == c.phi and obj.R == c.R
            else:
                assert obj.tau == c.tau and obj.xi == c.xi
            if getattr(c, "Bmat", None) is not None:
                assert obj.Bmat == c.Bmat

    def test_library_system_names(self, pair):
        """A name the library gives a system is written as an identifier,
        and the text reads back to itself."""
        image = apply_discrete(pair, DiscreteMap(pair.context, phi=(
            -pair.context.spatial[0], pair.context.spatial[1]),
            R=((-1, 0), (0, 1))))
        for ito, line in ((kpz_ito(KpzChain(3)), "system kpz_3"),
                          (image, "system pair_")):
            text = to_sde(ito)
            assert text.splitlines()[0] == line
            assert to_sde(parse_system(text)) == text

    @pytest.mark.parametrize("d, message", [
        ({"drift": {"z": "1"}, "sigma": {}}, "'z' is not a declared variable"),
        ({"drift": {}, "sigma": {"z": {"w1": "1"}}},
         "'z' is not a declared variable"),
        ({"drift": {}, "sigma": {"x": {"v": "1"}}},
         "'v' is not a declared noise"),
    ], ids=["drift", "sigma-variable", "sigma-noise"])
    def test_system_json_undeclared_key(self, d, message):
        with pytest.raises(ValueError, match=message):
            system_from_dict({"vars": ["x", "y"], "noises": ["w1", "w2"], **d})

    @pytest.mark.parametrize("d, message", [
        ({"noises": ["w1"], "drift": {}, "sigma": {}},
         "a system needs the key 'vars'"),
        ({"vars": ["x"], "drift": {}, "sigma": {}},
         "a system needs the key 'noises'"),
        ({"vars": ["x"], "noises": ["w1"], "sigma": {}},
         "a system needs the key 'drift'"),
        ({"vars": ["x"], "noises": ["w1"], "drift": {}},
         "a system needs the key 'sigma'"),
        ({"vars": ["x"], "noises": ["w1"], "drfit": {"x": "1"}, "drift": {},
          "sigma": {}}, "'drfit' is not a key of a system"),
    ], ids=["vars", "noises", "drift", "sigma", "unknown"])
    def test_system_json_missing_or_unknown_key(self, d, message):
        with pytest.raises(ValueError, match=message):
            system_from_dict(d)

    @pytest.mark.parametrize("d, message", [
        ({"xi": {}}, "a candidate needs the key 'type'"),
        ({"type": "vector_field"}, "a vector_field candidate needs the key "
         "'xi'"),
        ({"type": "w_symmetry", "B": [["0", "1"], ["-1", "0"]]},
         "a w_symmetry candidate needs the key 'xi'"),
        ({"type": "w_symmetry", "xi": {"x": "y"}},
         "a w_symmetry candidate needs the key 'B'"),
        ({"type": "discrete_map", "phi": {"x": "-x"}},
         "a discrete_map candidate needs the key 'R'"),
    ], ids=["type", "xi", "w-xi", "B", "R"])
    def test_candidate_json_missing_key(self, pair, d, message):
        with pytest.raises(ValueError, match=message):
            candidate_from_dict(d, pair)

    def test_candidate_name_written_as_identifier(self, pair):
        """A name that is not an identifier is written as one, with the
        rule of `to_sde`, and the text reads back."""
        shift = VectorField(pair.context, xi=(1, 0))
        text = to_cand(shift, name="shift-x")
        assert text.splitlines()[0] == "candidate shift_x"
        again = parse_candidate(text, pair)
        assert again.xi == shift.xi and again.name == "shift_x"

    @pytest.mark.parametrize("d, message", [
        ({"type": "vector_field", "xi": {"z": "1"}},
         "'z' is not a declared variable"),
        ({"type": "discrete_map", "phi": {"z": "1"},
          "R": [["1", "0"], ["0", "1"]]}, "'z' is not a declared variable"),
        ({"type": "w_symmetry", "xi": {}, "B": [["0", "1"], ["-1", "0"]],
          "beta": "1"}, "'beta' is not a key of a w_symmetry candidate"),
        ({"type": "vector_field", "xi": {}, "B": [["0", "1"], ["-1", "0"]]},
         "'B' is not a key of a vector_field candidate"),
    ], ids=["xi", "phi", "beta-on-w", "B-on-field"])
    def test_candidate_json_unknown_key(self, pair, d, message):
        with pytest.raises(ValueError, match=message):
            candidate_from_dict(d, pair)

    def test_fixture_files_round_trip(self, manifest, systems, fixtures_dir):
        from stosym.dsl import load_candidate
        for entry in manifest["checks"]:
            ito = systems[entry["system"]]
            c = load_candidate(fixtures_dir / entry["candidate"], ito)
            again = parse_candidate(to_cand(c, base_context=ito.context), ito)
            assert type(again) is type(c)


_RANDOM_CTX = Context(spatial=("x", "y"), params={"k": "positive", "c": None},
                      noises=("w1", "w2"))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_random_system_round_trips(rng):
    """A system with random coefficients survives the .sde text and the JSON
    form with identical to_dsl entries."""
    ito = ItoSystem(
        context=_RANDOM_CTX, name="random",
        f=tuple(random_expression(rng, _RANDOM_CTX) for _ in range(2)),
        sigma=tuple(tuple(random_expression(rng, _RANDOM_CTX) for _ in range(2))
                    for _ in range(2)))

    def entries(system):
        return ([to_dsl(e) for e in system.f],
                [[to_dsl(e) for e in row] for row in system.sigma])
    for again in (parse_system(to_sde(ito)),
                  system_from_dict(system_to_dict(ito))):
        assert entries(again) == entries(ito)


_TIME_CTX = Context(params=_RANDOM_CTX.param_assumptions)


def _random_candidate(rng):
    """A vector field (with or without beta), a W-symmetry with a constant
    antisymmetric B or a map with a signed-permutation R, in _RANDOM_CTX."""
    ctx = _RANDOM_CTX
    kind = rng.choice(["field", "field+beta", "w", "map"])
    if kind == "map":
        perm = rng.choice([(0, 1), (1, 0)])
        R = tuple(tuple(rng.choice([-1, 1]) if q == perm[p] else 0
                        for q in range(2)) for p in range(2))
        return DiscreteMap(context=ctx, R=R, phi=tuple(
            random_expression(rng, ctx) for _ in range(2)))
    tau = random_expression(rng, _TIME_CTX)
    xi = tuple(random_expression(rng, ctx) for _ in range(2))
    if kind == "w":
        b = sp.Rational(rng.randint(-5, 5), rng.randint(1, 4)) * rng.choice(
            [1, *ctx.params.values()])
        return VectorField(context=ctx, tau=tau, xi=xi, Bmat=((0, b), (-b, 0)))
    beta = random_expression(rng, ctx) if kind == "field+beta" else None
    return VectorField(context=ctx, tau=tau, xi=xi, beta=beta)


def _candidate_entries(c):
    def matrix(rows):
        return [[to_dsl(e) for e in row] for row in rows]
    if isinstance(c, DiscreteMap):
        return type(c), [to_dsl(e) for e in c.phi], matrix(c.R)
    if c.Bmat is not None:
        extra = matrix(c.Bmat)
    else:
        extra = None if c.beta is None else to_dsl(c.beta)
    return type(c), to_dsl(c.tau), [to_dsl(e) for e in c.xi], extra


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.randoms(use_true_random=False))
def test_random_candidate_round_trips(rng):
    """A candidate of each kind with random coefficients survives the .cand
    text and the JSON form with identical to_dsl entries."""
    c = _random_candidate(rng)
    for again in (parse_candidate(to_cand(c), _RANDOM_CTX),
                  candidate_from_dict(candidate_to_dict(c), _RANDOM_CTX)):
        assert _candidate_entries(again) == _candidate_entries(c)
