import json
import threading
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from stosym import mcsim
from stosym.dsl import load_system
from stosym.kernel import Context
from stosym.kpz import KpzChain, kpz_ito
from stosym.model import DiscreteMap, ItoSystem, VectorField, WSymmetry
from stosym.mcsim import (BlowupError, InputError, compare_ensembles,
                          euler_maruyama, export_binary, load_binary,
                          validate_symmetry_mc)

GOLDEN = Path(__file__).resolve().parent / "data" / "em_golden.json"


@pytest.fixture(scope="module")
def wiener():
    ctx = Context(spatial=("x",), noises=("w",))
    return ItoSystem(context=ctx, f=(sp.Integer(0),), sigma=((sp.Integer(1),),))


class TestEulerMaruyama:
    def test_deterministic_per_seed(self, wiener):
        a = euler_maruyama(wiener, [0.0], 0.0, 0.2, 1e-3, 200, seed=1)
        b = euler_maruyama(wiener, [0.0], 0.0, 0.2, 1e-3, 200, seed=1)
        c = euler_maruyama(wiener, [0.0], 0.0, 0.2, 1e-3, 200, seed=2)
        assert np.array_equal(a.paths, b.paths)
        assert not np.array_equal(a.paths, c.paths)

    def test_wiener_variance(self, wiener):
        ens = euler_maruyama(wiener, [0.0], 0.0, 1.0, 1e-3, 5000, seed=3)
        final = ens.paths[:, -1, 0]
        assert abs(final.var(ddof=1) - 1.0) < 0.1
        assert abs(final.mean()) < 0.05

    def test_parameter_binding_required(self):
        ctx = Context(spatial=("x",), params={"a": None}, noises=("w",))
        ito = ItoSystem(context=ctx, f=(ctx.symbol("a"),),
                        sigma=((sp.Integer(1),),))
        with pytest.raises(ValueError):
            euler_maruyama(ito, [0.0], 0.0, 0.1, 1e-2, 10, seed=0)
        euler_maruyama(ito, [0.0], 0.0, 0.1, 1e-2, 10, seed=0,
                       params={"a": 1.0})

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_blowup_reported(self):
        ctx = Context(spatial=("x",), noises=("w",))
        x = ctx.spatial[0]
        ito = ItoSystem(context=ctx, f=(x**3,), sigma=((sp.Integer(0),),))
        with pytest.raises(BlowupError) as err:
            euler_maruyama(ito, [50.0], 0.0, 1.0, 1e-2, 4, seed=0)
        assert err.value.step > 0

    def test_stream_across_blocks(self, wiener):
        """The increments drawn block by block are the seed's stream in its
        per-step (step, path, channel) order, bit for bit."""
        steps, n_paths, dt, seed = 50, 20_000, 1e-2, 17
        assert steps * n_paths * 8 > 4 * mcsim._BLOCK_BYTES
        before = threading.active_count()
        ens = euler_maruyama(wiener, [0.0], 0.0, steps * dt, dt, n_paths,
                             seed, store_every=steps)
        assert threading.active_count() == before
        z = np.random.Generator(np.random.Philox(key=seed)).standard_normal(
            (steps, n_paths, 1))
        assert np.array_equal(ens.paths[:, -1, :],
                              np.cumsum(z * np.sqrt(dt), axis=0)[-1])

    def test_blowup_matches_plain_loop(self):
        """A noisy x^3 drift: the error names the first path and step that
        a plain per-step loop over the same stream finds, and the draw
        thread is gone after the raise."""
        ctx = Context(spatial=("x",), noises=("w",))
        x = ctx.spatial[0]
        ito = ItoSystem(context=ctx, f=(x**3,), sigma=((sp.Rational(1, 2),),))
        x0, dt, n_paths, seed = 0.5, 1e-2, 20_000, 3
        rng = np.random.Generator(np.random.Philox(key=seed))
        X = np.full(n_paths, x0)
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(1, 1001):
                dW = rng.standard_normal((n_paths, 1))[:, 0] * np.sqrt(dt)
                X = X + X**3 * dt + 0.5 * dW
                bad = np.flatnonzero(~np.isfinite(X))
                if bad.size:
                    break
        expected = (int(bad[0]), step)
        # the blow-up lies several blocks in, so the worker was drawing
        assert step * n_paths * 8 > 4 * mcsim._BLOCK_BYTES
        before = threading.active_count()
        with pytest.raises(BlowupError) as err:
            euler_maruyama(ito, [x0], 0.0, 10.0, dt, n_paths, seed)
        assert (err.value.path, err.value.step) == expected
        assert threading.active_count() == before

    @pytest.mark.parametrize("name,make", [
        ("langevin2", lambda fx: load_system(fx / "langevin2.sde")),
        ("chain8", lambda fx: kpz_ito(KpzChain(8))),
    ])
    def test_constant_noise_paths_unchanged(self, fixtures_dir, name, make):
        """Constant-noise systems keep their paths bit for bit: every
        stored time of a sample of paths, over several draw blocks, as the
        earlier path-major stepper computed them."""
        case = json.loads(GOLDEN.read_text())[name]
        steps, dt = case["steps"], case["dt"]
        ens = euler_maruyama(make(fixtures_dir), case["x0"], 0.0, steps * dt,
                             dt, case["n_paths"], case["seed"],
                             params=case["params"])
        assert np.array_equal(ens.paths[::case["stride"]],
                              np.array(case["paths"]))

    def test_snapshot_schedule(self, wiener):
        ens = euler_maruyama(wiener, [0.0], 0.0, 1.0, 1e-2, 10, seed=0,
                             store_every=25)
        assert ens.times[0] == 0.0
        assert ens.times[-1] == pytest.approx(1.0)
        assert len(ens.times) == 5


def _reference_em(ito, x0, dt, n_steps, n_paths, seed, params=None):
    """Plain Euler-Maruyama from the same Philox stream: every drift and
    sigma entry lambdified on its own and the noise contracted path by path
    at every step, whatever the noise class."""
    ctx = ito.context
    subs = {ctx.symbol(k): v for k, v in (params or {}).items()}
    args = (*ctx.spatial, ctx.t)

    def field(exprs):
        fns = [sp.lambdify(args, sp.sympify(e).subs(subs), "numpy")
               for e in exprs]
        return lambda X, t: np.stack(
            [np.broadcast_to(np.asarray(fn(*X.T, t), dtype=float), X.shape[:1])
             for fn in fns], axis=1)
    drift = field(ito.f)
    sigma = field([e for row in ito.sigma for e in row])
    rng = np.random.Generator(np.random.Philox(key=seed))
    X = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    t = 0.0
    for step in range(1, n_steps + 1):
        dW = rng.standard_normal((n_paths, ito.m)) * np.sqrt(dt)
        sig = sigma(X, t).reshape(n_paths, ito.n, ito.m)
        X = X + drift(X, t) * dt + np.einsum("pik,pk->pi", sig, dW)
        t = step * dt
    return X


def _dense_constant():
    ctx = Context(spatial=("x1", "x2"), noises=("w1", "w2"))
    x1, x2 = ctx.spatial
    return ItoSystem(context=ctx, f=(-x1 + x2 / 2, -x2),
                     sigma=((sp.Integer(1), sp.Rational(1, 2)),
                            (sp.Rational(-3, 10), sp.sqrt(2))))


def _state_dependent():
    ctx = Context(spatial=("x1", "x2"), noises=("w1", "w2"))
    x1, x2 = ctx.spatial
    s = sp.Rational(2, 5)
    return ItoSystem(context=ctx, f=(-x1, -x2),
                     sigma=((s * x1, s * x2), (-s * x2, s * x1)))


@pytest.mark.parametrize("make,x0,params", [
    (lambda fx: load_system(fx / "langevin2.sde"), [1.0, -0.5],
     {"s1": 0.7, "s2": 0.3}),
    (lambda fx: _dense_constant(), [0.3, 0.1], None),
    (lambda fx: load_system(fx / "rotating.sde"), [0.0, 0.2], None),
    (lambda fx: _state_dependent(), [1.0, 0.5], None),
    (lambda fx: kpz_ito(KpzChain(8)), np.linspace(-0.5, 0.5, 8),
     {"a": 1.0, "b": 0.1}),
], ids=["constant-diagonal", "constant-dense", "time-only",
        "state-dependent", "chain"])
def test_noise_classes_match_plain_em(fixtures_dir, make, x0, params):
    ito = make(fixtures_dir)
    dt, n_steps, n_paths, seed = 1e-2, 50, 200, 21
    ens = euler_maruyama(ito, x0, 0.0, n_steps * dt, dt, n_paths, seed,
                         params=params)
    ref = _reference_em(ito, x0, dt, n_steps, n_paths, seed, params)
    np.testing.assert_allclose(ens.paths[:, -1, :], ref, rtol=1e-12,
                               atol=1e-12)


def _wiener_samples(rng, n_paths, n_slices, scale=1.0, dt=0.1):
    """An ensemble of exact Wiener paths times `scale`, sampled at
    n_slices times after 0."""
    steps = rng.standard_normal((n_paths, n_slices, 1)) * np.sqrt(dt)
    paths = np.concatenate([np.zeros((n_paths, 1, 1)), steps.cumsum(axis=1)],
                           axis=1)
    return mcsim.Ensemble(times=dt * np.arange(n_slices + 1),
                          paths=scale * paths, seed=0, dt=dt, n_paths=n_paths)


class TestCompare:
    def test_same_law_passes(self, wiener):
        a = euler_maruyama(wiener, [0.0], 0.0, 0.5, 1e-3, 3000, seed=5)
        b = euler_maruyama(wiener, [0.0], 0.0, 0.5, 1e-3, 3000, seed=6)
        assert compare_ensembles(a, b).verdict

    def test_different_law_fails(self, wiener):
        ctx = wiener.context
        double = ItoSystem(context=ctx, f=(sp.Integer(0),),
                           sigma=((sp.Integer(2),),))
        a = euler_maruyama(wiener, [0.0], 0.0, 0.5, 1e-3, 3000, seed=7)
        b = euler_maruyama(double, [0.0], 0.0, 0.5, 1e-3, 3000, seed=8)
        rep = compare_ensembles(a, b)
        assert not rep.verdict
        assert min(e["ks_pvalue"] for e in rep.entries) < 1e-6

    @pytest.mark.parametrize("significance", [0.0, 1.0, -0.1, float("nan")])
    def test_significance_outside_unit_interval_rejected(self, wiener,
                                                         significance):
        a = euler_maruyama(wiener, [0.0], 0.0, 0.1, 1e-2, 50, seed=5)
        with pytest.raises(InputError, match="significance"):
            compare_ensembles(a, a, significance=significance)

    def test_single_path_rejected(self, wiener):
        a = euler_maruyama(wiener, [0.0], 0.0, 0.1, 1e-2, 1, seed=5)
        b = euler_maruyama(wiener, [0.0], 0.0, 0.1, 1e-2, 50, seed=6)
        with pytest.raises(InputError, match="at least 2 paths"):
            compare_ensembles(a, b)

    def test_false_alarm_rate_within_significance(self):
        """The verdict on true nulls fails at most a `significance` share
        of comparisons. A second family of tests at the same threshold,
        such as mean and variance checks, would push the rate above it."""
        rng = np.random.default_rng(0)
        n, significance = 600, 0.05
        fails = sum(not compare_ensembles(_wiener_samples(rng, 1000, 5),
                                          _wiener_samples(rng, 1000, 5),
                                          significance=significance).verdict
                    for _ in range(n))
        assert fails <= significance * n

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_values_compared_without_overflow(self):
        """Values near 1e160 have finite ranks but squares past the float
        range; the comparison must not square them."""
        rng = np.random.default_rng(1)
        a = _wiener_samples(rng, 1000, 5, scale=1e160)
        b = _wiener_samples(rng, 1000, 5, scale=1e160)
        assert compare_ensembles(a, b).verdict

    def test_report_names_worst_slice(self, wiener):
        a = euler_maruyama(wiener, [0.0], 0.0, 0.5, 1e-2, 500, seed=5)
        b = euler_maruyama(wiener, [0.0], 0.0, 0.5, 1e-2, 500, seed=6)
        rep = compare_ensembles(a, b)
        d = rep.to_dict()
        worst = min(rep.entries, key=lambda e: e["ks_pvalue"])
        assert d["schema"] == 2 and d["n_tests"] == len(rep.entries) == 10
        assert d["min_pvalue"] == worst["ks_pvalue"]
        assert d["worst_slice"] == {"time": worst["time"],
                                    "coordinate": worst["coordinate"]}
        assert all(set(e) == {"time", "coordinate", "ks_pvalue"}
                   for e in d["entries"])

    def test_no_time_after_the_initial_one_rejected(self):
        a = _wiener_samples(np.random.default_rng(2), 10, 0)
        with pytest.raises(InputError, match="stored time"):
            compare_ensembles(a, a)

    def test_mismatched_shapes_rejected(self, wiener):
        a = euler_maruyama(wiener, [0.0], 0.0, 0.5, 1e-3, 100, seed=9)
        b = euler_maruyama(wiener, [0.0], 0.0, 0.5, 1e-3, 100, seed=9,
                           store_every=100)
        with pytest.raises(ValueError):
            compare_ensembles(a, b)


class TestValidate:
    def test_near_identity_shift(self, wiener):
        vf = VectorField(context=wiener.context, tau=0, xi=(sp.Integer(1),))
        rep = validate_symmetry_mc(wiener, vf, x0=[0.0], n_paths=3000,
                                   dt=1e-3, seed=11)
        assert rep.verdict

    def test_discrete_reflection(self, wiener):
        ctx = wiener.context
        dmap = DiscreteMap(context=ctx, phi=(-ctx.spatial[0],),
                           R=((sp.Integer(-1),),))
        rep = validate_symmetry_mc(wiener, dmap, x0=[0.4], n_paths=3000,
                                   dt=1e-3, seed=12)
        assert rep.verdict

    def test_time_component_rejected(self, wiener):
        vf = VectorField(context=wiener.context, tau=1)
        with pytest.raises(ValueError):
            validate_symmetry_mc(wiener, vf, x0=[0.0])

    @pytest.mark.parametrize("kind", ["xi=x^2", "phi=2x"])
    def test_non_symmetry_fails(self, wiener, kind):
        """Neither map takes Wiener paths to Wiener paths; the moved
        ensemble follows the transformed equation, not the system."""
        ctx = wiener.context
        x = ctx.spatial[0]
        if kind == "xi=x^2":
            candidate = VectorField(context=ctx, xi=(x**2,))
        else:
            candidate = DiscreteMap(context=ctx, phi=(2 * x,),
                                    R=((sp.Integer(1),),))
        rep = validate_symmetry_mc(wiener, candidate, x0=[0.0], n_paths=3000,
                                   dt=1e-3, seed=11)
        assert not rep.verdict
        assert min(e["ks_pvalue"] for e in rep.entries) < 1e-6

    @pytest.mark.parametrize("s1,s2,symmetry", [(0.5, 0.5, True),
                                                 (0.9, 0.1, False)])
    def test_noise_rotation(self, fixtures_dir, s1, s2, symmetry):
        """xi = (x2, -x1) with B[1][2] = 1 rotates the two oscillators and
        their noises together: a symmetry only when their noise strengths
        agree."""
        lan = load_system(fixtures_dir / "langevin2.sde")
        x1, x2 = lan.context.spatial
        rot = WSymmetry(context=lan.context, xi=(x2, -x1),
                        Bmat=((0, 1), (-1, 0)))
        rep = validate_symmetry_mc(lan, rot, x0=[0.5, -0.2], dt=1e-2,
                                   seed=13, params={"s1": s1, "s2": s2})
        assert rep.verdict == symmetry

    def test_moved_blowup_reported(self, wiener):
        """The flow of xi = exp(x) leaves the finite numbers before eps = 2
        from x = 1, at the initial point already."""
        x = wiener.context.spatial[0]
        vf = VectorField(context=wiener.context, xi=(sp.exp(x),))
        with pytest.raises(BlowupError, match="non-finite moved value in "
                                              "path 0 at step 0"):
            validate_symmetry_mc(wiener, vf, x0=[1.0], n_paths=10, dt=1e-2,
                                 epsilon=2.0)

    @pytest.mark.parametrize("epsilon", [0.0, float("inf"), float("nan")])
    def test_unusable_epsilon_rejected(self, wiener, epsilon):
        vf = VectorField(context=wiener.context, xi=(sp.Integer(1),))
        with pytest.raises(InputError, match="epsilon"):
            validate_symmetry_mc(wiener, vf, x0=[0.0], epsilon=epsilon)


def test_binary_round_trip(tmp_path, wiener):
    ens = euler_maruyama(wiener, [0.25], 0.0, 0.3, 1e-3, 64, seed=13)
    path = tmp_path / "ens.bin"
    export_binary(ens, path)
    back = load_binary(path)
    assert np.array_equal(back.paths, ens.paths)
    assert np.array_equal(back.times, ens.times)
    assert back.seed == ens.seed
    assert back.dt == ens.dt
    assert back.n_paths == ens.n_paths


@pytest.fixture
def ensemble_file(tmp_path, wiener):
    # 8 paths, 11 stored times, n = 1: a payload of 8*8*11*1 + 8*11 = 792 bytes
    ens = euler_maruyama(wiener, [0.0], 0.0, 0.1, 1e-2, 8, seed=14)
    path = tmp_path / "ens.bin"
    export_binary(ens, path)
    return path


def test_binary_truncated_rejected(ensemble_file):
    raw = ensemble_file.read_bytes()
    ensemble_file.write_bytes(raw[:-5])
    with pytest.raises(ValueError, match="payload is 787 bytes, expected 792"):
        load_binary(ensemble_file)
    ensemble_file.write_bytes(raw[:20])
    with pytest.raises(ValueError, match="truncated header"):
        load_binary(ensemble_file)


def test_binary_trailing_bytes_rejected(ensemble_file):
    ensemble_file.write_bytes(ensemble_file.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="payload is 800 bytes, expected 792"):
        load_binary(ensemble_file)


def test_binary_wrong_magic_rejected(ensemble_file):
    raw = ensemble_file.read_bytes()
    ensemble_file.write_bytes(b"NOTANENS" + raw[8:])
    with pytest.raises(ValueError, match="not a stosym ensemble file"):
        load_binary(ensemble_file)
