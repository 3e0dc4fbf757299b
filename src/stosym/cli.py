"""Command-line front end.

Exit codes: 0 the candidate is a symmetry (or the command succeeded),
1 it is not, 2 the input was rejected (a file failed to parse, an
argument or parameter binding is unusable, or the system is degenerate
where a command needs its Fokker-Planck equation), 3 the verdict is
inconclusive (the zero test could not decide a residual, a degeneracy or
the orthogonality of a candidate's R), 4 a simulation blew up
(`simulate`, `mc-check`: a path, or a state the candidate moved, left the
finite numbers).
"""
from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import replace

import click
import sympy as sp

from .kernel import Context, InconclusiveError, ParseError, parse_expr, \
    to_dsl
from .model import DegeneracyError, DiscreteMap, VectorField, WSymmetry, \
    fokker_planck_of
from .detgen import detsys_discrete, detsys_fp, detsys_projectable, detsys_w
from .verify import OverallVerdict, _fp_classification, check, \
    check_normalization_preserving, extend_to_fp
from .solve import Ansatz, NonlinearEntanglementError, default_time_basis, \
    solve_ansatz
from .dsl import candidate_to_dict, load_candidate, load_system
from . import kpz as kpzmod

EXIT_SYMMETRY = 0
EXIT_NOT_SYMMETRY = 1
EXIT_PARSE_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_BLOWUP = 4


def _emit(data):
    click.echo(json.dumps(data, indent=2, sort_keys=True))


def _stop(code, message):
    click.echo(message, err=True)
    sys.exit(code)


def _reject(message):
    _stop(EXIT_PARSE_ERROR, message)


def _exit_for(overall):
    sys.exit({OverallVerdict.SYMMETRY: EXIT_SYMMETRY,
              OverallVerdict.NOT_SYMMETRY: EXIT_NOT_SYMMETRY,
              OverallVerdict.INCONCLUSIVE: EXIT_INCONCLUSIVE}[overall])


def _exit_contract(command):
    """Map the errors a symbolic command can meet past parsing onto the exit
    contract, with one line on stderr: a degenerate system is rejected
    input (2) and an undecided zero test an inconclusive verdict (3)."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except DegeneracyError as e:
            _reject(f"{click.get_current_context().info_name}: {e}")
        except InconclusiveError as e:
            _stop(EXIT_INCONCLUSIVE, f"inconclusive: {e}")
    return run


def _load(path, loader, *args):
    try:
        return loader(path, *args)
    except (ParseError, OSError, ValueError) as e:
        _reject(f"{path}: {e}")


def _detsys_for(ito, candidate):
    if isinstance(candidate, DiscreteMap):
        return detsys_discrete(ito, candidate)
    if isinstance(candidate, WSymmetry):
        return detsys_w(ito, candidate)
    if candidate.beta is not None:
        return detsys_fp(ito, candidate)
    return detsys_projectable(ito, candidate)


def _generic_candidate(ito):
    """Candidate with opaque unknowns tau(t) and xi_<v>(x, t)."""
    ctx = ito.context
    names = ["tau"] + [f"xi_{v}" for v in ctx.spatial_names]
    octx = Context(spatial=ctx.spatial_names, params=ctx.param_assumptions,
                   noises=ctx.noise_names, opaque=names)
    tau = octx.opaque["tau"](octx.t)
    xi = tuple(octx.opaque[f"xi_{v}"](*octx.spatial, octx.t)
               for v in ctx.spatial_names)
    return VectorField(context=octx, tau=tau, xi=xi)


@click.group()
def main():
    """Symmetry analysis of Ito stochastic differential equations."""


@main.command("derive-fp")
@_exit_contract
@click.argument("system_file", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def derive_fp(system_file, as_json):
    """Print the Fokker-Planck coefficients of a system."""
    ito = _load(system_file, load_system)
    fp = fokker_planck_of(ito)
    data = {
        "schema": 1,
        "system": ito.name,
        "A": [[to_dsl(e) for e in row] for row in fp.A],
        "B": [to_dsl(e) for e in fp.B],
        "C": to_dsl(fp.C),
    }
    if as_json:
        _emit(data)
    else:
        click.echo(f"A = {data['A']}")
        click.echo(f"B = {data['B']}")
        click.echo(f"C = {data['C']}")


@main.command("detsys")
@_exit_contract
@click.argument("system_file", type=click.Path(exists=True))
@click.argument("candidate_file", type=click.Path(exists=True), required=False)
@click.option("--json", "as_json", is_flag=True)
def detsys(system_file, candidate_file, as_json):
    """Print determining equations; with no candidate the unknowns stay
    symbolic."""
    ito = _load(system_file, load_system)
    if candidate_file:
        candidate = _load(candidate_file, load_candidate, ito)
    else:
        candidate = _generic_candidate(ito)
    ds = _detsys_for(ito, candidate)
    data = {"schema": 1, "system": ds.name,
            "equations": [{"label": label, "residual": to_dsl(e)}
                          for label, e in ds.equations]}
    if as_json:
        _emit(data)
    else:
        for entry in data["equations"]:
            click.echo(f"{entry['label']}: {entry['residual']} = 0")


@main.command("check")
@_exit_contract
@click.argument("system_file", type=click.Path(exists=True))
@click.argument("candidate_file", type=click.Path(exists=True))
@click.option("--fp", "classify_fp", is_flag=True,
              help="Extend with beta = -div(xi) and classify the "
                   "Fokker-Planck projection.")
@click.option("--json", "as_json", is_flag=True)
def check_cmd(system_file, candidate_file, classify_fp, as_json):
    """Verify a candidate against its determining equations."""
    ito = _load(system_file, load_system)
    candidate = _load(candidate_file, load_candidate, ito)
    data = {"schema": 1}
    if classify_fp:
        if not isinstance(candidate, VectorField):
            _reject("--fp applies to vector-field candidates only")
        vf = candidate if candidate.beta is not None else extend_to_fp(candidate)
        report = check(detsys_fp(ito, vf))
        preserving = check_normalization_preserving(vf)
        if report.is_symmetry and preserving:
            report = replace(report,
                             classification=_fp_classification(ito, vf))
        data.update(report.to_dict())
        data["normalization_preserving"] = preserving
    else:
        report = check(_detsys_for(ito, candidate))
        data.update(report.to_dict())
    if as_json:
        _emit(data)
    else:
        click.echo(f"{data['overall']}"
                   + (f" ({data['classification']})" if "classification" in data else ""))
    _exit_for(report.overall)


@main.command("solve")
@_exit_contract
@click.argument("system_file", type=click.Path(exists=True))
@click.option("--degree", default=1, show_default=True)
@click.option("--time-basis", "basis_tokens", multiple=True,
              help="'poly2' or 'exp:<rate>' (repeatable); default poly2.")
@click.option("--with-b", "with_b", is_flag=True,
              help="Also search constant antisymmetric noise mixers.")
@click.option("--json", "as_json", is_flag=True)
def solve_cmd(system_file, degree, basis_tokens, with_b, as_json):
    """Solve the determining equations inside a finite ansatz."""
    ito = _load(system_file, load_system)
    t = ito.context.t
    rates = []
    for token in basis_tokens:
        if token == "poly2":
            continue
        if token.startswith("exp:"):
            try:
                rate = parse_expr(token[4:], ito.context)
            except ParseError as e:
                _reject(f"--time-basis {token}: {e}")
            if rate.free_symbols & set(ito.context.spatial):
                _reject(f"--time-basis {token}: the rate must not depend on "
                        f"the spatial variables")
            rates.append(rate)
        else:
            _reject(f"unknown time basis token '{token}'")
    try:
        ansatz = Ansatz(degree=degree, time_basis=default_time_basis(t, rates),
                        t=t, include_B=with_b)
    except ValueError as e:
        _reject(f"solve: {e}")
    try:
        basis = solve_ansatz(ito, ansatz, which="w" if with_b else "projectable")
    except NonlinearEntanglementError as e:
        _reject(f"solve: {e}")
    data = {
        "schema": 1,
        "system": ito.name,
        "dimension": basis.dimension,
        "generators": [candidate_to_dict(g, base_context=ito.context)
                       for g in basis.generators],
    }
    if as_json:
        _emit(data)
    else:
        click.echo(f"dimension {basis.dimension}")
        for i, g in enumerate(basis.generators, start=1):
            parts = [f"tau = {to_dsl(g.tau)}"]
            parts += [f"xi {v} = {to_dsl(g.xi[j])}"
                      for j, v in enumerate(ito.context.spatial_names)]
            if isinstance(g, WSymmetry):
                parts.append(f"B = {[[to_dsl(e) for e in row] for row in g.Bmat]}")
            click.echo(f"generator {i}: " + ", ".join(parts))


def _finite(text, option):
    """An option's value as a finite float; anything else is rejected."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    _reject(f"{option}: '{text}' is not a finite number")


def _parse_params(pairs, ctx):
    """--param name=value pairs, each naming a declared parameter."""
    out = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        name = name.strip()
        if not value:
            _reject(f"--param: expected name=value, got '{pair}'")
        if name not in ctx.params:
            _reject(f"--param {pair}: '{name}' is not a declared parameter")
        out[name] = _finite(value, f"--param {name}")
    return out


def _parse_x0(text, n):
    vals = [_finite(v, "--x0") for v in text.split(",")]
    if len(vals) != n:
        _reject(f"--x0: expected {n} components, got {len(vals)}")
    return vals


@main.command("simulate")
@click.argument("system_file", type=click.Path(exists=True))
@click.option("--x0", required=True, help="Comma-separated initial point.")
@click.option("--t0", default=0.0, show_default=True)
@click.option("--t1", default=1.0, show_default=True)
@click.option("--dt", default=1e-3, show_default=True)
@click.option("--n-paths", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--param", "param_pairs", multiple=True,
              help="Numeric value for a declared parameter, name=value.")
@click.option("--out", "out_file", required=True, type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def simulate(system_file, x0, t0, t1, dt, n_paths, seed, param_pairs,
             out_file, as_json):
    """Simulate an ensemble and write it to a binary file."""
    from .mcsim import BlowupError, InputError, euler_maruyama, export_binary
    ito = _load(system_file, load_system)
    x0 = _parse_x0(x0, ito.n)
    params = _parse_params(param_pairs, ito.context)
    try:
        ens = euler_maruyama(ito, x0, t0, t1, dt, n_paths, seed,
                             params=params)
    except InputError as e:
        _reject(f"simulate: {e}")
    except BlowupError as e:
        _stop(EXIT_BLOWUP, f"simulate: {e}")
    export_binary(ens, out_file)
    data = {"schema": 1, "system": ito.name, "out": out_file,
            "n_paths": ens.n_paths, "n_stored": len(ens.times),
            "seed": seed, "dt": dt}
    if as_json:
        _emit(data)
    else:
        click.echo(f"wrote {out_file} ({ens.n_paths} paths, "
                   f"{len(ens.times)} stored times)")


@main.command("mc-check")
@_exit_contract
@click.argument("system_file", type=click.Path(exists=True))
@click.argument("candidate_file", type=click.Path(exists=True))
@click.option("--x0", required=True, help="Comma-separated initial point.")
@click.option("--t1", default=1.0, show_default=True)
@click.option("--dt", default=1e-3, show_default=True)
@click.option("--n-paths", default=10000, show_default=True)
@click.option("--seed", default=12345, show_default=True)
@click.option("--epsilon", default=0.3, show_default=True,
              help="A generator moves states by exp(epsilon xi).")
@click.option("--significance", default=0.01, show_default=True,
              help="Family-wise false-alarm rate of the KS tests.")
@click.option("--param", "param_pairs", multiple=True)
@click.option("--json", "as_json", is_flag=True)
def mc_check(system_file, candidate_file, x0, t1, dt, n_paths, seed,
             epsilon, significance, param_pairs, as_json):
    """Cross-validate a candidate numerically: move every simulated path
    through it (phi, or exp(epsilon xi) with tau = 0) and compare with the
    system started at the moved point. Only one-time marginals of the laws
    are compared, so a Fokker-Planck statistical equivalence passes too."""
    from .mcsim import BlowupError, InputError, validate_symmetry_mc
    ito = _load(system_file, load_system)
    candidate = _load(candidate_file, load_candidate, ito)
    x0 = _parse_x0(x0, ito.n)
    params = _parse_params(param_pairs, ito.context)
    try:
        report = validate_symmetry_mc(
            ito, candidate, x0=x0, t1=t1, dt=dt,
            n_paths=n_paths, seed=seed, epsilon=epsilon,
            significance=significance, params=params)
    except InputError as e:
        _reject(f"mc-check: {e}")
    except BlowupError as e:
        _stop(EXIT_BLOWUP, f"mc-check: {e}")
    if as_json:
        _emit(report.to_dict())
    else:
        click.echo("pass" if report.verdict else "fail")
    sys.exit(EXIT_SYMMETRY if report.verdict else EXIT_NOT_SYMMETRY)


def _exact(value, option):
    """An option as an exact real number of the expression language
    (0.1 -> 1/10); raises ValueError otherwise."""
    if value is None:
        return None
    try:
        number = parse_expr(value, Context())
    except ParseError as e:
        raise ValueError(f"{option} '{value}' is not a real number: {e}") \
            from None
    if number.free_symbols or not number.is_real:
        raise ValueError(f"{option} '{value}' is not a real number")
    return number


@main.command("kpz")
@_exit_contract
@click.option("--sites", required=True, type=int)
@click.option("--alpha", default=None, help="Numeric coupling; symbolic if omitted.")
@click.option("--beta", default=None, help="Numeric nonlinearity; symbolic if omitted.")
@click.option("--check", "which", required=True,
              type=str, help="time-shift | h-shift | site-shift | "
                             "inversion:<m> | h-inversion")
@click.option("--json", "as_json", is_flag=True)
def kpz_cmd(sites, alpha, beta, which, as_json):
    """Check a named symmetry of the periodic growth chain."""
    try:
        # exact parameters (0.1 -> 1/10) keep the chain in the polynomial ring
        chain = kpzmod.KpzChain(sites, alpha=_exact(alpha, "--alpha"),
                                 beta=_exact(beta, "--beta"))
    except ValueError as e:
        _reject(f"kpz: {e}")
    n = sites
    if which in ("time-shift", "h-shift"):
        tau, shift = (1, 0) if which == "time-shift" else (0, 1)
        report = check(kpzmod.kpz_detsys_continuous(
            chain, tau, sp.zeros(n, n), [shift] * n))
    else:
        if which == "site-shift":
            F = kpzmod.site_shift_matrix(n)
        elif which.startswith("inversion:"):
            try:
                F = kpzmod.inversion_matrix(n, int(which.split(":", 1)[1]))
            except ValueError:
                _reject(f"kpz: '{which}' needs an integer site, as in inversion:2")
        elif which == "h-inversion":
            F = -sp.eye(n)
        else:
            _reject(f"unknown check '{which}'")
        report = kpzmod.kpz_check_discrete(chain, F)
    data = {**report.to_dict(), "schema": 2, "check": which}
    if as_json:
        _emit(data)
    else:
        click.echo(report.overall.value)
    _exit_for(report.overall)


if __name__ == "__main__":
    main()
