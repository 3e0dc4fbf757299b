import pytest
import sympy as sp

from stosym.kernel import normalize
from stosym.model import DiscreteMap
from stosym.detgen import detsys_discrete
from stosym.verify import check
from stosym.kpz import (KpzChain, inversion_matrix, kpz_check_discrete,
                        kpz_detsys_continuous, kpz_ito, kpz_tensors,
                        site_shift_matrix)


@pytest.fixture(scope="module")
def chain5():
    return KpzChain(5)


class TestConstruction:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            KpzChain(2)

    def test_tensors_rebuild_drift(self, chain5):
        n = chain5.n_sites
        ito = kpz_ito(chain5)
        ten = kpz_tensors(chain5)
        x = sp.Matrix(chain5.context.spatial)
        for i in range(n):
            rebuilt = ((ten.M * x)[i]
                       + sum(ten.G[i][j][k] * x[j] * x[k]
                             for j in range(n) for k in range(n)))
            assert normalize(rebuilt - ito.f[i]) == 0

    def test_quadratic_rows_sum_to_zero(self):
        # each stencil difference has zero row sum, for every chain size
        for n in range(3, 13):
            ten = kpz_tensors(KpzChain(n))
            for i in range(n):
                for k in range(n):
                    assert sp.expand(sum(ten.G[i][j][k]
                                         for j in range(n))) == 0


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
        rep = kpz_check_discrete(chain5, 2 * sp.eye(5))
        assert not rep.orthogonal
        assert not rep.is_symmetry


class TestCrossCheck:
    """The chain-specific conditions on the tensor form agree with the
    general discrete determining equations of the assembled Ito system; the
    two paths share only the chain's parameters and the zero test."""

    def test_discrete_agrees(self):
        for n in range(3, 9):
            for beta in (None, 0):
                chain = KpzChain(n, beta=beta)
                ito = kpz_ito(chain)
                x = sp.Matrix(ito.context.spatial)
                maps = [(site_shift_matrix(n), True), (-sp.eye(n), beta == 0)]
                maps += [(inversion_matrix(n, m), True)
                         for m in range(1, n + 1)]
                for F, expected in maps:
                    dmap = DiscreteMap(
                        context=ito.context, phi=tuple(F * x),
                        R=tuple(tuple(F[i, j] for j in range(n))
                                for i in range(n)))
                    general = check(detsys_discrete(ito, dmap)).is_symmetry
                    special = kpz_check_discrete(chain, F).is_symmetry
                    assert general == special == expected, (n, beta, F)


def test_discrete_inconclusive_raises(chain5, monkeypatch):
    """An undecided entry raises instead of reading as 'not a symmetry'."""
    import stosym.kernel as kernel
    monkeypatch.setattr(kernel, "zero_verdict",
                        lambda e: kernel.Verdict.INCONCLUSIVE)
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
