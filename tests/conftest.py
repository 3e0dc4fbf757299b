import json
import random
from pathlib import Path

import pytest
import sympy as sp

from stosym.detgen import detsys_projectable
from stosym.dsl import load_candidate, load_system
from stosym.kernel import Context
from stosym.model import ItoSystem

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "stosym" / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def manifest():
    return json.loads((FIXTURES / "manifest.json").read_text())


@pytest.fixture(scope="session")
def systems(manifest):
    return {name: load_system(FIXTURES / name) for name in manifest["systems"]}


def candidate_for(entry, systems):
    return load_candidate(FIXTURES / entry["candidate"], systems[entry["system"]])


def random_expression(rng, ctx, depth=3, functions=True):
    """Random expression over the declared symbols, for property tests;
    without exp/sin/cos when `functions` is false."""
    atoms = list(ctx.spatial) + [ctx.t] + list(ctx.params.values())
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.5:
            return rng.choice(atoms)
        return sp.Rational(rng.randint(-5, 5), rng.randint(1, 4))
    op = rng.choice(["add", "mul", "pow", "fn"] if functions
                    else ["add", "mul", "pow"])
    if op == "add":
        return (random_expression(rng, ctx, depth - 1, functions)
                + random_expression(rng, ctx, depth - 1, functions))
    if op == "mul":
        return (random_expression(rng, ctx, depth - 1, functions)
                * random_expression(rng, ctx, depth - 1, functions))
    if op == "pow":
        return (random_expression(rng, ctx, depth - 1, functions)
                ** rng.randint(2, 3))
    fn = rng.choice([sp.sin, sp.cos, sp.exp])
    return fn(rng.choice(atoms) * sp.Rational(rng.randint(1, 3), rng.randint(1, 2)))


# two variables, two noises and two parameters, one of them positive
RING_CTX = Context(spatial=("x", "y"), params={"k": "positive", "c": None},
                   noises=("w1", "w2"))


def random_polynomial_system(rng):
    """Random Ito system with float-free polynomial f and sigma over
    RING_CTX, for property tests of the polynomial-ring paths."""
    def poly():
        return random_expression(rng, RING_CTX, depth=2, functions=False)
    return ItoSystem(context=RING_CTX, f=(poly(), poly()),
                     sigma=((poly(), poly()), (poly(), poly())))


def seeded_rng(seed):
    return random.Random(seed)


def lambda_gamma(ito, vf):
    """(Lambda, Gamma) of a candidate: the n Lambda residuals and the n rows
    of m Gamma residuals of `detsys_projectable`, in its order."""
    res = detsys_projectable(ito, vf).residuals()
    n, m = ito.n, ito.m
    return res[:n], tuple(res[n + i * m:n + (i + 1) * m] for i in range(n))
