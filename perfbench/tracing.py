"""Per-layer tracing from outside the program.

`Tracer.install()` rebinds the public functions of each stosym module with
wrappers, in every stosym module namespace that holds them, together with
`sympy.diff`, the constructors of the model classes and the callback of the
CLI `check` command; `uninstall()` puts the originals back. Each wrapper
records a span (name, start, end, parent span, op) and, for some layers, an
amount of work read off the result. Each op of the benchmark is a root span.
Spans stay in memory; `write()` saves them when the run ends.

A span's self time is its duration minus the durations of its direct child
spans, so self times sum to the op's wall time.
"""
from __future__ import annotations

import gzip
import statistics
import sys
import time

import sympy


def _equations(ds):
    return len(ds.equations)


def _decided(verdict):
    return int(verdict.value != "inconclusive")


def _path_steps(ens):
    return ens.n_paths * round((ens.times[-1] - ens.times[0]) / ens.dt)


def _ks_tests(report):
    return sum(1 for e in report.entries if "ks_pvalue" in e)


def _residuals(report):
    return len(report.per_equation)


# (module, function names, span name, amount of work taken from the result)
FUNCTIONS = (
    ("kernel", ("normalize",), "kernel.normalize", None),
    ("kernel", ("zero_verdict",), "kernel.zero_verdict", _decided),
    ("kernel", ("parse_expr",), "kernel.parse_expr", None),
    ("dsl", ("load_system",), "dsl.load_system", None),
    ("dsl", ("load_candidate",), "dsl.load_candidate", None),
    ("model", ("fokker_planck_of",), "model.fokker_planck_of", None),
    ("detgen", ("detsys_ode", "detsys_spatial", "detsys_projectable",
                "detsys_fp", "detsys_w", "detsys_discrete"), "detgen.detsys",
     _equations),
    ("verify", ("check",), "verify.check", _residuals),
    ("verify", ("extend_to_fp", "check_normalization_preserving",
                "project_fp_symmetry"), "verify.fp_extras", None),
    ("solve", ("solve_ansatz",), "solve.solve_ansatz", None),
    ("solve", ("default_time_basis",), "solve.ansatz_build", None),
    ("solve", ("commutator_closure", "membership_coordinates", "commutator"),
     "solve.closure", None),
    ("kpz", ("kpz_detsys_continuous",), "kpz.detsys_continuous", _equations),
    ("kpz", ("kpz_check_discrete",), "kpz.check_discrete", None),
    ("kpz", ("kpz_ito",), "kpz.kpz_ito", None),
    ("mcsim", ("euler_maruyama",), "mcsim.euler_maruyama", _path_steps),
    ("mcsim", ("compare_ensembles",), "mcsim.compare_ensembles", _ks_tests),
    ("mcsim", ("validate_symmetry_mc",), "mcsim.validate_symmetry_mc", None),
)

# classes whose __post_init__ (the validation and normalization done on
# construction) is a span
CONSTRUCTORS = (
    ("model", ("ItoSystem", "FokkerPlanck", "VectorField", "WSymmetry",
               "DiscreteMap"), "model.construct"),
    ("solve", ("Ansatz",), "solve.ansatz_build"),
)

OP = "op"


def _loaded(module):
    return sys.modules.get(f"stosym.{module}")


class Tracer:
    def __init__(self, op_names):
        self.op_names = op_names
        self.spans = []      # (name, start, end, parent, op index, amount)
        self.stack = [-1]
        self.op = -1
        self.passes = []     # (first span, end) per traced pass
        self._saved = []

    # --- rebinding -----------------------------------------------------------

    def install(self):
        """Wrap the layers of every stosym module the workload has loaded;
        modules it never loaded stay unloaded."""
        for module, names, span, amount in FUNCTIONS:
            for name in names:
                original = getattr(_loaded(module), name, None)
                if original is not None:
                    self._rebind_everywhere(
                        original, self._wrap(span, original, amount))
        self._rebind(sympy, "diff", self._wrap("sympy.diff", sympy.diff))
        for module, names, span in CONSTRUCTORS:
            for name in names:
                cls = getattr(_loaded(module), name, None)
                if cls is not None:
                    self._rebind(cls, "__post_init__",
                                 self._wrap(span, cls.__post_init__))
        cli = _loaded("cli")
        if cli is not None:
            self._rebind(cli.check_cmd, "callback",
                         self._wrap("cli.check", cli.check_cmd.callback))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "stosym" and not mod_name.startswith("stosym."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, attr, wrapper)

    def _wrap(self, name, fn, amount=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = amount(result) if amount and result is not None else 0
                spans[sid] = (name, start, end, parent, self.op, work)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # --- spans the benchmark opens -------------------------------------------

    def begin_pass(self):
        self.passes.append([len(self.spans), None])

    def end_pass(self):
        self.passes[-1][1] = len(self.spans)

    def run_op(self, index, fn, *args):
        """Run one op as a root span."""
        self.op = index
        return self._wrap(OP, fn)(*args)

    # --- aggregation ---------------------------------------------------------

    def pass_metrics(self, first, last, op_groups):
        """Per-layer figures of the spans in [first, last)."""
        spans = self.spans
        child = [0.0] * (last - first)
        for sid in range(first, last):
            name, start, end, parent, op, work = spans[sid]
            if parent >= first:
                child[parent - first] += end - start
        calls, self_s, work_sum = {}, {}, {}
        reverify = 0.0
        em_time, em_steps = {}, {}
        for sid in range(first, last):
            name, start, end, parent, op, work = spans[sid]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[sid - first]
            work_sum[name] = work_sum.get(name, 0) + work
            if name == "verify.check" and self._has_ancestor(
                    sid, "solve.solve_ansatz"):
                reverify += dur
            if name == "mcsim.euler_maruyama" and op >= 0:
                group = op_groups[op]
                em_time[group] = em_time.get(group, 0.0) + dur
                em_steps[group] = em_steps.get(group, 0) + work
        zv_calls = calls.get("kernel.zero_verdict", 0)
        out = {
            "kernel.zero_verdict.decided_frac":
                work_sum.get("kernel.zero_verdict", 0) / zv_calls
                if zv_calls else 1.0,
            "detgen.equations": work_sum.get("detgen.detsys", 0),
            "verify.check.residuals": work_sum.get("verify.check", 0),
            "kpz.equations": work_sum.get("kpz.detsys_continuous", 0),
            "mcsim.path_steps": work_sum.get("mcsim.euler_maruyama", 0),
            "mcsim.ks_tests": work_sum.get("mcsim.compare_ensembles", 0),
            "solve.reverify_s": reverify,
        }
        for group in ("small", "state_noise", "chain"):
            steps = em_steps.get(f"em_{group}", 0)
            out[f"mcsim.ns_per_path_step.{group}"] = (
                1e9 * em_time[f"em_{group}"] / steps if steps else 0.0)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        return out

    def _has_ancestor(self, sid, name):
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def median_metrics(self, op_groups):
        """Median over the traced passes of each per-layer figure; a figure
        absent from a pass counts as 0 there."""
        per_pass = [self.pass_metrics(a, b, op_groups) for a, b in self.passes]
        names = set().union(*per_pass) if per_pass else set()
        return {name: statistics.median(p.get(name, 0) for p in per_pass)
                for name in names}

    def write(self, path):
        """All spans as gzipped tab-separated lines, times in seconds from
        the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\twork\n")
            for sid, (name, start, end, parent, op, work) in enumerate(self.spans):
                op_name = self.op_names[op] if op >= 0 else ""
                fh.write(f"{sid}\t{name}\t{start - t0:.7f}\t{end - t0:.7f}"
                         f"\t{parent}\t{op_name}\t{work}\n")
