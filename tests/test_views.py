"""What readers see of values kept in the context's ring: ItoSystem.f and
.sigma, DiscreteMap.phi, DeterminingSystem.equations (also after
dataclasses.replace) and VerificationReport.to_dict() of the growth chain
at N = 3..5 read as tests/data/kpz_views.json records them. `views()`
wrote that file (sympy 1.14) while every one of these values was still
built as an expression in its constructor; regenerate it only for a
deliberate change of these outputs, with
    PYTHONPATH=src python tests/test_views.py > tests/data/kpz_views.json
"""
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
import sympy as sp
from sympy.polys.rings import PolyElement

from stosym.detgen import detsys_discrete
from stosym.kpz import (KpzChain, kpz_check_discrete, kpz_detsys_continuous,
                        kpz_ito, site_shift_matrix)
from stosym.model import DiscreteMap, ItoSystem, _dot
from stosym.verify import check

GOLDEN = Path(__file__).resolve().parent / "data" / "kpz_views.json"
# the couplings of `stosym kpz` (--alpha 2 --beta 1/3 are read exactly),
# and floats, which keep the chain on expressions
COUPLINGS = {"symbolic": {}, "rational": {"alpha": 2, "beta": sp.Rational(1, 3)},
             "float": {"alpha": sp.Float(0.5), "beta": sp.Float(0.25)}}
SIZES = (3, 4, 5)
MAPS = {"site_shift": site_shift_matrix, "h_inversion": lambda n: -sp.eye(n)}


def _maps(chain, F):
    """y = F x as a DiscreteMap with phi as expressions and with phi as
    elements of the context's ring."""
    ctx, R = chain.context, F.tolist()
    ring = ctx.ring
    x = [ring.gens[ring.symbols.index(v)] for v in ctx.spatial]
    in_ring = tuple(sum((v * e for e, v in zip(row, x) if e), ring.zero)
                    for row in R)
    return (DiscreteMap(ctx, phi=tuple(_dot(row, ctx.spatial) for row in R),
                        R=R),
            DiscreteMap(ctx, phi=in_ring, R=R))


def _equations(ds):
    """srepr of the equations, read before and after dataclasses.replace,
    which must agree."""
    renamed = replace(ds, name="renamed")
    out = sp.srepr(ds.equations)
    assert sp.srepr(renamed.equations) == out and renamed.name == "renamed"
    return out


def _case(n, couplings):
    chain = KpzChain(n, **couplings)
    ito = kpz_ito(chain)
    out = {"f": sp.srepr(ito.f), "sigma": sp.srepr(ito.sigma)}
    for label, matrix in MAPS.items():
        F = matrix(n)
        seen = [{"phi": sp.srepr(dmap.phi),
                 "equations": _equations(detsys_discrete(ito, dmap)),
                 "report": check(detsys_discrete(ito, dmap)).to_dict()}
                for dmap in _maps(chain, F)]
        assert seen[0] == seen[1]
        out[label] = {**seen[0],
                      "chain_report": kpz_check_discrete(chain, F).to_dict()}
    ds = kpz_detsys_continuous(chain, 1, sp.zeros(n, n), [0] * n)
    out["time_shift"] = {"equations": _equations(ds),
                         "report": check(ds).to_dict()}
    return out


def views():
    return {f"{kind}-{n}": _case(n, couplings)
            for kind, couplings in COUPLINGS.items() for n in SIZES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", COUPLINGS)
@pytest.mark.parametrize("n", SIZES)
def test_views_as_recorded(golden, kind, n):
    assert _case(n, COUPLINGS[kind]) == golden[f"{kind}-{n}"]


@pytest.mark.parametrize("kind", ["symbolic", "rational"])
def test_ring_and_expression_systems_equal(kind):
    """An ItoSystem built from ring elements equals, and hashes like, one
    built from their expressions, whichever is read first; the expression
    view is built once."""
    chain = KpzChain(4, **COUPLINGS[kind])
    ring_made = kpz_ito(chain)
    f, sigma = ring_made._stored("f"), ring_made._stored("sigma")
    assert all(isinstance(e, PolyElement) for e in (*f, *sum(sigma, ())))
    from_exprs = ItoSystem(chain.context, f=[e.as_expr() for e in f],
                           sigma=[[e.as_expr() for e in row] for row in sigma],
                           name=ring_made.name)
    assert ring_made == from_exprs and hash(ring_made) == hash(from_exprs)
    from_ring = ItoSystem(chain.context, f=f, sigma=sigma, name=ring_made.name)
    assert hash(from_ring) == hash(ring_made) and from_ring == ring_made
    assert ring_made.f is ring_made.f and ring_made.sigma is ring_made.sigma
    assert ring_made != replace(ring_made, name="other")


if __name__ == "__main__":
    json.dump(views(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
