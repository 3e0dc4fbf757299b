import random
from fractions import Fraction

import pytest
import sympy as sp

from stosym.kernel import normalize
from stosym.verify import OverallVerdict, check
from stosym.kpz import (KpzChain, inversion_matrix, kpz_check_discrete,
                        kpz_detsys_continuous, kpz_ito, site_shift_matrix)


@pytest.fixture(scope="module")
def chain5():
    return KpzChain(5)


class TestConstruction:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            KpzChain(2)


class TestContinuous:
    def test_time_shift(self, chain5):
        n = chain5.n_sites
        ds = kpz_detsys_continuous(chain5, 1, sp.zeros(n, n), [0] * n)
        assert check(ds).is_symmetry

    def test_uniform_height_shift(self, chain5):
        n = chain5.n_sites
        ds = kpz_detsys_continuous(chain5, 0, sp.zeros(n, n), [1] * n)
        assert check(ds).is_symmetry

    def test_nonuniform_shift_fails(self, chain5):
        n = chain5.n_sites
        ds = kpz_detsys_continuous(chain5, 0, sp.zeros(n, n),
                                   [1] + [0] * (n - 1))
        assert not check(ds).is_symmetry

    def test_mixer_must_be_antisymmetric(self, chain5):
        n = chain5.n_sites
        with pytest.raises(ValueError):
            kpz_detsys_continuous(chain5, 0, sp.zeros(n, n), [0] * n,
                                  Bmat=sp.eye(n))


class TestDiscrete:
    def test_site_shift(self, chain5):
        assert kpz_check_discrete(chain5, site_shift_matrix(5)).is_symmetry

    def test_inversion(self, chain5):
        for m in (1, 2, 3):
            assert kpz_check_discrete(chain5, inversion_matrix(5, m)).is_symmetry

    def test_height_inversion_requires_linearity(self, chain5):
        assert not kpz_check_discrete(chain5, -sp.eye(5)).is_symmetry
        linear = KpzChain(5, beta=0)
        assert kpz_check_discrete(linear, -sp.eye(5)).is_symmetry

    def test_non_orthogonal_rejected(self, chain5):
        with pytest.raises(ValueError, match="orthogonal"):
            kpz_check_discrete(chain5, 2 * sp.eye(5))

    @pytest.mark.parametrize("call,message", [
        (lambda chain: kpz_detsys_continuous(chain, 0, sp.zeros(4, 4),
                                             [0] * 5),
         "candidate shape does not match the chain size"),
        (lambda chain: kpz_detsys_continuous(chain, 0, sp.zeros(5, 5),
                                             [0] * 4),
         "candidate shape does not match the chain size"),
        (lambda chain: kpz_check_discrete(chain, sp.eye(4)),
         "F must match the chain size"),
    ], ids=["continuous-Lambda", "continuous-alpha", "discrete"])
    def test_wrongly_shaped_candidate_rejected(self, chain5, call, message):
        with pytest.raises(ValueError) as err:
            call(chain5)
        assert err.value.args == (message,)

    def test_irrational_map_keeps_expressions(self):
        """A 45 degree rotation of sites 1 and 2 is orthogonal but not
        rational, so F x is built on expressions; it is no symmetry of the
        chain."""
        c = sp.sqrt(2) / 2
        F = sp.Matrix([[c, -c, 0], [c, c, 0], [0, 0, 1]])
        report = kpz_check_discrete(KpzChain(3), F)
        assert report.overall is OverallVerdict.NOT_SYMMETRY


def _stencil_drift(a, b, x):
    """f^i = a (x^{i+1} - 2 x^i + x^{i-1}) + b (x^{i+1} - x^{i-1})^2."""
    n = len(x)
    return [a * (x[(i + 1) % n] - 2 * x[i] + x[i - 1])
            + b * (x[(i + 1) % n] - x[i - 1]) ** 2 for i in range(n)]


def _oracle(F, beta_zero, rng):
    """Whether y = F x with noise mixer F is a symmetry of the chain, decided
    exactly: F F^T = I, and F f(x) = f(F x) at three random rational points
    in (a, b, x), each coordinate drawn from a set of 10^6 values. Each
    residual has degree <= 3, so by Schwartz-Zippel a false 'zero' has
    probability at most (3 / 10^6)^3."""
    n = F.rows
    F = [[int(F[i, j]) for j in range(n)] for i in range(n)]

    def apply(v):
        return [sum(F[i][j] * v[j] for j in range(n)) for i in range(n)]

    def draw():
        return Fraction(rng.randrange(1, 10**6 + 1), 1000)

    if any(sum(F[i][k] * F[j][k] for k in range(n)) != (i == j)
           for i in range(n) for j in range(n)):
        return False
    for _ in range(3):
        a, b = draw(), 0 if beta_zero else draw()
        x = [draw() for _ in range(n)]
        if apply(_stencil_drift(a, b, x)) != _stencil_drift(a, b, apply(x)):
            return False
    return True


class TestCrossCheck:
    """The general engine's verdict on every chain map agrees with an exact
    oracle that shares no code with it: the stencil is evaluated with
    fractions.Fraction, not through kpz_ito or the zero test."""

    def test_discrete_agrees(self):
        rng = random.Random(20)
        for n in range(3, 9):
            for beta in (None, 0):
                chain = KpzChain(n, beta=beta)
                maps = [(site_shift_matrix(n), True), (-sp.eye(n), beta == 0)]
                maps += [(inversion_matrix(n, m), True)
                         for m in range(1, n + 1)]
                for F, expected in maps:
                    assert _oracle(F, beta == 0, rng) == expected, (n, beta, F)
                    assert kpz_check_discrete(chain, F).is_symmetry == expected


def test_discrete_inconclusive_raises(chain5, monkeypatch):
    """An undecided zero test never reads as 'not a symmetry': an undecided
    residual makes the verdict inconclusive, an undecided orthogonality of
    F raises."""
    import stosym.kernel as kernel
    import stosym.verify as verify

    def undecided(e):
        return kernel.Verdict.INCONCLUSIVE
    monkeypatch.setattr(verify, "zero_verdict", undecided)
    report = kpz_check_discrete(chain5, site_shift_matrix(5))
    assert report.overall is OverallVerdict.INCONCLUSIVE
    monkeypatch.setattr(kernel, "zero_verdict", undecided)
    with pytest.raises(kernel.InconclusiveError):
        kpz_check_discrete(chain5, site_shift_matrix(5))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_mixer_verdicts(n):
    """Rotation generator Lambda = S - S^T of the site shift S, with and
    without the matching noise mixer B = Lambda; the verdicts were recorded
    on the earlier chain-specific equations."""
    S = site_shift_matrix(n)
    rot = S - S.T
    expected = {(0, True): "symmetry", (0, False): "not_symmetry",
                (None, True): "not_symmetry", (None, False): "not_symmetry"}
    for (beta, with_b), verdict in expected.items():
        chain = KpzChain(n, beta=beta)
        ds = kpz_detsys_continuous(chain, 0, rot, [0] * n,
                                   Bmat=rot if with_b else None)
        assert check(ds).overall.value == verdict


def _named_verdicts(chain):
    """Time shift, uniform height shift, site shift, inversion about site
    2 and height inversion of the chain."""
    n = chain.n_sites
    return [check(kpz_detsys_continuous(chain, 1, sp.zeros(n, n),
                                        [0] * n)).overall.value,
            check(kpz_detsys_continuous(chain, 0, sp.zeros(n, n),
                                        [1] * n)).overall.value,
            kpz_check_discrete(chain, site_shift_matrix(n)).overall.value,
            kpz_check_discrete(chain, inversion_matrix(n, 2)).overall.value,
            kpz_check_discrete(chain, -sp.eye(n)).overall.value]


@pytest.mark.parametrize("alpha", [0.5, sp.sqrt(2)], ids=["float", "sqrt2"])
def test_parameters_outside_qq_keep_their_path(alpha):
    """A coupling outside QQ is not built in the context's ring: a Float
    stays a Float (QQ would turn 0.5 into 1/2) and the system stays on
    expressions, and sqrt(2) widens the exact domain. The drift is the
    normalized stencil, and the verdicts are those recorded when the chain
    was built on expressions for every coupling."""
    for n in (3, 4, 5):
        chain = KpzChain(n, alpha=alpha)
        ito = kpz_ito(chain)
        x = chain.context.spatial
        assert ito.f == tuple(normalize(e) for e in _stencil_drift(
            chain.alpha, chain.beta, x))
        assert (ito._coefficients is None) == (alpha == 0.5)
        assert _named_verdicts(chain) == ["symmetry"] * 4 + ["not_symmetry"]
    if alpha == 0.5:
        assert chain.alpha == sp.Float(0.5) and chain.alpha != sp.Rational(1, 2)
        assert str(kpz_ito(KpzChain(3, alpha=alpha)).f[0]) == (
            "1.0*b*x2**2 - 2.0*b*x2*x3 + 1.0*b*x3**2 - 1.0*x1 + 0.5*x2 "
            "+ 0.5*x3")


def test_chain_work_stays_on_nonzero_entries(monkeypatch):
    """Over the site-shift check and the time shift at N = 8: kpz_ito
    builds the chain in the context's ring without PolyRing.from_expr,
    DiscreteMap tests R R^T = I without a sympy Matrix product, and no
    ring element is compared with != (which first makes a ring element of
    the 0). Each spy is shown live on a call outside the checks."""
    from sympy.polys.rings import PolyElement, PolyRing
    from stosym import kpz, model
    calls, inside = [], []

    def within(owner, name):
        function = getattr(owner, name)

        def entered(*args, **kwargs):
            inside.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(owner, name, entered)

    def counted(owner, name):
        function = getattr(owner, name)

        def call(*args, **kwargs):
            calls.append((name, inside[-1] if inside else None))
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)
    within(kpz, "kpz_ito")
    within(model.DiscreteMap, "__post_init__")
    counted(PolyRing, "from_expr")
    counted(sp.MutableDenseMatrix, "__mul__")
    counted(PolyElement, "__ne__")
    n = 8
    chain = KpzChain(n)
    assert kpz_check_discrete(chain, site_shift_matrix(n)).is_symmetry
    assert check(kpz_detsys_continuous(chain, 1, sp.zeros(n, n),
                                       [0] * n)).is_symmetry
    assert ("from_expr", "kpz_ito") not in calls
    assert ("__mul__", "__post_init__") not in calls
    assert [c for c in calls if c[0] == "__ne__"] == []
    # nor do the checks convert an entry anywhere else
    # (test_chain_stays_in_the_ring)
    assert [c for c in calls if c[0] == "from_expr"] == []
    ring = chain.context.ring
    ring.from_expr(chain.alpha), sp.eye(2) * sp.eye(2), ring.one != 0
    assert calls[-3:] == [("from_expr", None), ("__mul__", None),
                          ("__ne__", None)]


def test_chain_stays_in_the_ring(monkeypatch):
    """From kpz_ito to the verdict of the site shift, the height inversion
    and the time shift at N = 8, no value leaves the context's ring and
    none is converted back into it: no PolyElement.as_expr and no
    PolyRing.from_expr call. The chain, phi = F x, the residuals and the
    report keep their ring elements, and their expressions are built only
    when a reader asks for them; the height inversion's nonzero residuals
    are decided by truthiness. Each spy is shown live on a call outside
    the checks, and reading the report's expressions builds them."""
    from sympy.polys.rings import PolyElement, PolyRing
    calls = []

    def counted(owner, name):
        function = getattr(owner, name)

        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)
    counted(PolyElement, "as_expr")
    counted(PolyRing, "from_expr")
    n = 8
    chain = KpzChain(n)
    verdicts = [kpz_check_discrete(chain, site_shift_matrix(n)),
                kpz_check_discrete(chain, -sp.eye(n)),
                check(kpz_detsys_continuous(chain, 1, sp.zeros(n, n),
                                            [0] * n))]
    assert [r.overall.value for r in verdicts] == [
        "symmetry", "not_symmetry", "symmetry"]
    assert calls == []
    ring = chain.context.ring
    ring.from_expr(chain.alpha).as_expr()
    assert calls == ["from_expr", "as_expr"]
    # the height inversion's report: n nonzero drift residuals, n^2 zeros
    report = verdicts[1].to_dict()
    assert calls.count("as_expr") == 1 + n + n * n
    assert report["equations"][0]["residual"] != "0"
    assert calls.count("from_expr") == 1
