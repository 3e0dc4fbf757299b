"""Plain-text file formats for systems and symmetry candidates, plus JSON
serialization of both.

System files declare names, parameters, variables and noises, then list the
nonzero drift and noise coefficients:

    system heat
    params s0 : positive
    vars x
    noises w
    drift x = 0
    sigma x w = s0

Candidate files describe one of three objects against a given system
context; the kind is inferred from the directives used. `tau`, `xi`, `beta`
give a vector field; adding `B[i][j]` lines gives a noise-mixing generator;
`phi` and `R` give a finite map. Omitted entries default to zero (phi
defaults to the identity, R to the identity matrix).
"""
from __future__ import annotations

import re

import sympy as sp

from .kernel import Context, ParseError, UndeclaredSymbolError, is_zero, \
    parse_expr, to_dsl
from .model import DiscreteMap, ItoSystem, VectorField, WSymmetry

__all__ = [
    "parse_system", "parse_candidate", "load_system", "load_candidate",
    "to_sde", "to_cand", "system_to_dict", "system_from_dict",
    "candidate_to_dict", "candidate_from_dict",
]

_ASSUMPTIONS = {"positive", "nonzero", "real"}
_ROW = r"\[([^\[\]]*)\]"
# rows separated by single commas, nothing else inside the outer brackets
_MATRIX = re.compile(rf"\[{_ROW}(\s*,\s*{_ROW})*\]")


def _lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _fail(message, lineno):
    raise ParseError(message, lineno, 1)


def _parse_at(expr_text, ctx, lineno):
    try:
        return parse_expr(expr_text, ctx)
    except UndeclaredSymbolError as e:
        raise UndeclaredSymbolError(e.name, lineno, e.col) from None
    except ParseError as e:
        message = str(e).split(" (line")[0]
        raise ParseError(message, lineno, e.col) from None


def _parse_param_list(rest, lineno, out):
    """Add the declarations of one params line to `out`; a name already
    declared, on this line or an earlier one, is rejected."""
    for chunk in rest.split(","):
        chunk = chunk.strip()
        if not chunk:
            _fail("empty parameter declaration", lineno)
        if ":" in chunk:
            name, assumption = (part.strip() for part in chunk.split(":", 1))
            if assumption not in _ASSUMPTIONS:
                _fail(f"unknown assumption '{assumption}'", lineno)
        else:
            name, assumption = chunk, None
        if not name.isidentifier():
            _fail(f"invalid parameter name '{name}'", lineno)
        if name in out:
            _fail(f"duplicate parameter '{name}'", lineno)
        out[name] = assumption


def parse_system(text) -> ItoSystem:
    name = "system"
    params, declared, coeff_lines = {}, {}, []
    for lineno, line in _lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "system":
            if not rest.isidentifier():
                _fail("system name must be an identifier", lineno)
            name = rest
        elif head == "params":
            _parse_param_list(rest, lineno, params)
        elif head in ("vars", "noises"):
            if head in declared:
                _fail(f"duplicate {head} declaration", lineno)
            names = declared[head] = tuple(rest.split())
            if len(set(names)) != len(names):
                _fail(f"a name repeats in the {head} declaration", lineno)
        elif head in ("drift", "sigma"):
            coeff_lines.append((lineno, head, rest))
        else:
            _fail(f"unknown directive '{head}'", lineno)
    spatial, noises = declared.get("vars"), declared.get("noises")
    if not spatial:
        _fail("missing vars declaration", 1)
    if not noises:
        _fail("missing noises declaration", 1)
    ctx = Context(spatial=spatial, params=params, noises=noises)
    var_index = {v: i for i, v in enumerate(spatial)}
    noise_index = {w: k for k, w in enumerate(noises)}
    f = [sp.Integer(0)] * len(spatial)
    f_seen = set()
    sigma = [[sp.Integer(0)] * len(noises) for _ in spatial]
    sigma_seen = set()
    for lineno, head, rest in coeff_lines:
        lhs, eq, expr_text = rest.partition("=")
        if not eq:
            _fail(f"expected '=' in {head} line", lineno)
        fields = lhs.split()
        if head == "drift":
            if len(fields) != 1 or fields[0] not in var_index:
                _fail("drift expects a declared variable name", lineno)
            i = var_index[fields[0]]
            if i in f_seen:
                _fail(f"duplicate drift entry for '{fields[0]}'", lineno)
            f_seen.add(i)
            f[i] = _parse_at(expr_text.strip(), ctx, lineno)
        else:
            if (len(fields) != 2 or fields[0] not in var_index
                    or fields[1] not in noise_index):
                _fail("sigma expects a variable name and a noise name", lineno)
            key = (var_index[fields[0]], noise_index[fields[1]])
            if key in sigma_seen:
                _fail(f"duplicate sigma entry for '{fields[0]} {fields[1]}'", lineno)
            sigma_seen.add(key)
            sigma[key[0]][key[1]] = _parse_at(expr_text.strip(), ctx, lineno)
    return ItoSystem(context=ctx, f=tuple(f),
                     sigma=tuple(tuple(row) for row in sigma), name=name)


def _parse_matrix_literal(text, ctx, lineno):
    text = text.strip()
    if not _MATRIX.fullmatch(text):
        _fail("matrix literal must look like [[...], [...]]", lineno)
    rows = [tuple(_parse_at(e.strip(), ctx, lineno) for e in row.split(","))
            for row in re.findall(_ROW, text[1:-1])]
    if len({len(r) for r in rows}) != 1:
        _fail("matrix rows have unequal lengths", lineno)
    return tuple(rows)


def parse_candidate(text, context):
    """Parse a candidate against a system context; the object kind is
    inferred from the directives present."""
    if isinstance(context, ItoSystem):
        context = context.context
    name = ""
    extra_params = {}
    entries = []
    for lineno, line in _lines(text):
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "candidate":
            if not rest.isidentifier():
                _fail("candidate name must be an identifier", lineno)
            name = rest
            continue
        if head == "params":
            _parse_param_list(rest, lineno, extra_params)
            continue
        entries.append((lineno, line))
    ctx = context.with_params(extra_params) if extra_params else context
    n, m = ctx.n, ctx.m
    var_index = {v: i for i, v in enumerate(ctx.spatial_names)}

    single, xi, phi, B = {}, {}, {}, {}
    at = {}  # the line of each entry, keyed by (head, component)
    for lineno, line in entries:
        lhs, eq, expr_text = line.partition("=")
        if not eq:
            _fail("expected '=' in candidate entry", lineno)
        lhs = lhs.strip()
        expr_text = expr_text.strip()
        fields = lhs.split()
        head = fields[0]
        if head in ("tau", "beta", "R") and len(fields) == 1:
            if head in single:
                _fail(f"duplicate {head} entry", lineno)
            parse = _parse_matrix_literal if head == "R" else _parse_at
            single[head] = parse(expr_text, ctx, lineno)
            at[head, None] = lineno
        elif head in ("xi", "phi"):
            component = xi if head == "xi" else phi
            if len(fields) != 2 or fields[1] not in var_index:
                _fail(f"{head} expects a declared variable name", lineno)
            i = var_index[fields[1]]
            if i in component:
                _fail(f"duplicate {head} entry for '{fields[1]}'", lineno)
            component[i] = _parse_at(expr_text, ctx, lineno)
            at[head, i] = lineno
        elif head.startswith("B[") and len(fields) == 1:
            inner = head[1:]
            parts = inner.replace("[", " ").replace("]", " ").split()
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                _fail("B entries are addressed as B[i][j]", lineno)
            p, q = int(parts[0]) - 1, int(parts[1]) - 1
            if not (0 <= p < m and 0 <= q < m) or p == q:
                _fail("B indices out of range or on the diagonal", lineno)
            if (p, q) in B:
                _fail(f"duplicate B entry B[{p + 1}][{q + 1}]", lineno)
            B[(p, q)] = _parse_at(expr_text, ctx, lineno)
            at["B", (p, q)] = lineno
        else:
            _fail(f"unknown candidate directive '{lhs}'", lineno)

    def first(*heads):
        return min(line for (head, _), line in at.items() if head in heads)

    # a conflict between entries is reported at the later one
    tau, beta, R = (single.get(head) for head in ("tau", "beta", "R"))
    is_map = bool(phi) or R is not None
    if is_map and (tau is not None or xi or beta is not None or B):
        _fail("a finite map cannot also carry tau, xi, beta or B entries",
              max(first("phi", "R"), first("tau", "xi", "beta", "B")))
    if is_map:
        full_phi = tuple(phi.get(i, ctx.spatial[i]) for i in range(n))
        full_R = R if R is not None else tuple(
            tuple(sp.Integer(1) if p == q else sp.Integer(0) for q in range(m))
            for p in range(m))
        dmap = DiscreteMap(context=ctx, phi=full_phi, R=full_R)
        return dmap
    full_xi = tuple(xi.get(i, sp.Integer(0)) for i in range(n))
    if B:
        if beta is not None:
            _fail("beta is not supported on noise-mixing candidates",
                  max(at["beta", None], first("B")))
        mat = [[sp.Integer(0)] * m for _ in range(m)]
        for (p, q), e in B.items():
            mat[p][q] = e
            if (q, p) not in B:
                mat[q][p] = -e
            elif p < q and not is_zero(B[(q, p)] + e):
                _fail(f"B[{p + 1}][{q + 1}] and B[{q + 1}][{p + 1}] "
                      "are not antisymmetric",
                      max(at["B", (p, q)], at["B", (q, p)]))
        return WSymmetry(context=ctx, tau=tau if tau is not None else 0,
                         xi=full_xi, Bmat=tuple(tuple(r) for r in mat))
    return VectorField(context=ctx, tau=tau if tau is not None else 0,
                       xi=full_xi, beta=beta, name=name)


def load_system(path) -> ItoSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def load_candidate(path, context):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_candidate(fh.read(), context)


# ---------------------------------------------------------------------------
# serialization

def _extra_params(ctx, base_context):
    if base_context is None:
        return {}
    return {name: assumption
            for name, assumption in ctx.param_assumptions.items()
            if name not in base_context.param_assumptions}


def _param_lines(params):
    if not params:
        return []
    chunks = [name if assumption is None else f"{name} : {assumption}"
              for name, assumption in params.items()]
    return ["params " + ", ".join(chunks)]


def to_sde(ito: ItoSystem) -> str:
    ctx = ito.context
    out = [f"system {ito.name or 'system'}"]
    out += _param_lines(ctx.param_assumptions)
    out.append("vars " + " ".join(ctx.spatial_names))
    out.append("noises " + " ".join(ctx.noise_names))
    for i, v in enumerate(ctx.spatial_names):
        if ito.f[i] != 0:
            out.append(f"drift {v} = {to_dsl(ito.f[i])}")
    for i, v in enumerate(ctx.spatial_names):
        for k, w in enumerate(ctx.noise_names):
            if ito.sigma[i][k] != 0:
                out.append(f"sigma {v} {w} = {to_dsl(ito.sigma[i][k])}")
    return "\n".join(out) + "\n"


def to_cand(candidate, base_context=None, name="") -> str:
    ctx = candidate.context
    out = []
    if name:
        out.append(f"candidate {name}")
    out += _param_lines(_extra_params(ctx, base_context))
    if isinstance(candidate, DiscreteMap):
        header_len = len(out)
        for i, v in enumerate(ctx.spatial_names):
            if candidate.phi[i] != ctx.spatial[i]:
                out.append(f"phi {v} = {to_dsl(candidate.phi[i])}")
        if candidate.r_matrix() != sp.eye(ctx.m):
            rows = ", ".join(
                "[" + ", ".join(to_dsl(e) for e in row) + "]"
                for row in candidate.R)
            out.append(f"R = [{rows}]")
        if len(out) == header_len:
            # identity map: keep one directive so the kind stays inferable
            out.append(f"phi {ctx.spatial_names[0]} = {ctx.spatial_names[0]}")
        return "\n".join(out) + "\n"
    if candidate.tau != 0:
        out.append(f"tau = {to_dsl(candidate.tau)}")
    for i, v in enumerate(ctx.spatial_names):
        if candidate.xi[i] != 0:
            out.append(f"xi {v} = {to_dsl(candidate.xi[i])}")
    if isinstance(candidate, WSymmetry):
        b_lines = [f"B[{p + 1}][{q + 1}] = {to_dsl(candidate.Bmat[p][q])}"
                   for p in range(ctx.m) for q in range(p + 1, ctx.m)
                   if candidate.Bmat[p][q] != 0]
        if not b_lines and ctx.m > 1:
            # zero mixer: keep one entry so the kind stays inferable
            b_lines = ["B[1][2] = 0"]
        out += b_lines
    elif candidate.beta is not None:
        out.append(f"beta = {to_dsl(candidate.beta)}")
    if not out:
        out.append("tau = 0")
    return "\n".join(out) + "\n"


def system_to_dict(ito: ItoSystem) -> dict:
    ctx = ito.context
    return {
        "schema": 1,
        "name": ito.name or "system",
        "params": dict(ctx.param_assumptions),
        "vars": list(ctx.spatial_names),
        "noises": list(ctx.noise_names),
        "drift": {v: to_dsl(ito.f[i]) for i, v in enumerate(ctx.spatial_names)},
        "sigma": {v: {w: to_dsl(ito.sigma[i][k])
                      for k, w in enumerate(ctx.noise_names)}
                  for i, v in enumerate(ctx.spatial_names)},
    }


def system_from_dict(d) -> ItoSystem:
    ctx = Context(spatial=tuple(d["vars"]), params=dict(d.get("params", {})),
                  noises=tuple(d["noises"]))
    f = tuple(parse_expr(d["drift"].get(v, "0"), ctx) for v in d["vars"])
    sigma = tuple(tuple(parse_expr(d["sigma"].get(v, {}).get(w, "0"), ctx)
                        for w in d["noises"]) for v in d["vars"])
    return ItoSystem(context=ctx, f=f, sigma=sigma, name=d.get("name", "system"))


def candidate_to_dict(candidate, base_context=None, name="") -> dict:
    ctx = candidate.context
    d = {"schema": 1, "name": name,
         "params": _extra_params(ctx, base_context)}
    if isinstance(candidate, DiscreteMap):
        d["type"] = "discrete_map"
        d["phi"] = {v: to_dsl(candidate.phi[i])
                    for i, v in enumerate(ctx.spatial_names)}
        d["R"] = [[to_dsl(e) for e in row] for row in candidate.R]
        return d
    d["tau"] = to_dsl(candidate.tau)
    d["xi"] = {v: to_dsl(candidate.xi[i])
               for i, v in enumerate(ctx.spatial_names)}
    if isinstance(candidate, WSymmetry):
        d["type"] = "w_symmetry"
        d["B"] = [[to_dsl(e) for e in row] for row in candidate.Bmat]
    else:
        d["type"] = "vector_field"
        if candidate.beta is not None:
            d["beta"] = to_dsl(candidate.beta)
    return d


def candidate_from_dict(d, context):
    if isinstance(context, ItoSystem):
        context = context.context
    ctx = (context.with_params(dict(d.get("params", {})))
           if d.get("params") else context)
    kind = d["type"]
    if kind == "discrete_map":
        phi = tuple(parse_expr(d["phi"].get(v, v), ctx) for v in ctx.spatial_names)
        R = tuple(tuple(parse_expr(e, ctx) for e in row) for row in d["R"])
        return DiscreteMap(context=ctx, phi=phi, R=R)
    tau = parse_expr(d.get("tau", "0"), ctx)
    xi = tuple(parse_expr(d["xi"].get(v, "0"), ctx) for v in ctx.spatial_names)
    if kind == "w_symmetry":
        B = tuple(tuple(parse_expr(e, ctx) for e in row) for row in d["B"])
        return WSymmetry(context=ctx, tau=tau, xi=xi, Bmat=B)
    if kind == "vector_field":
        beta = parse_expr(d["beta"], ctx) if "beta" in d else None
        return VectorField(context=ctx, tau=tau, xi=xi, beta=beta,
                           name=d.get("name", ""))
    raise ValueError(f"unknown candidate type '{kind}'")
