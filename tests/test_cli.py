import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import stosym
from stosym import cli, verify
from stosym.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def fx(fixtures_dir, name):
    return str(fixtures_dir / name)


class TestDeriveFp:
    def test_json_output(self, runner, fixtures_dir):
        result = runner.invoke(main, ["derive-fp", fx(fixtures_dir, "kramers.sde"),
                                      "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["schema"] == 1
        assert data["A"][1][1] == "-k^2"
        assert data["C"] == "-k^2"


class TestCheck:
    def test_symmetry_exit_zero(self, runner, fixtures_dir):
        result = runner.invoke(main, ["check", fx(fixtures_dir, "heat.sde"),
                                      fx(fixtures_dir, "heat_v5.cand")])
        assert result.exit_code == 0
        assert "symmetry" in result.output

    def test_non_symmetry_exit_one(self, runner, fixtures_dir):
        result = runner.invoke(main, ["check", fx(fixtures_dir, "rotating.sde"),
                                      fx(fixtures_dir, "rotating_dt.cand")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("system,candidate,kind", [
        ("heat.sde", "heat_v5.cand", "ito_symmetry"),
        ("rotating.sde", "rotating_dt.cand", "statistical_equivalence")])
    def test_fp_classification_decides_once(self, runner, fixtures_dir,
                                            monkeypatch, system, candidate,
                                            kind):
        """`check --fp` builds and decides the Fokker-Planck system once and
        carries the classification in the report."""
        built = []
        for module in (cli, verify):
            original = module.detsys_fp
            monkeypatch.setattr(module, "detsys_fp", lambda *args, _f=original:
                                built.append(args) or _f(*args))
        result = runner.invoke(main, ["check", fx(fixtures_dir, system),
                                      fx(fixtures_dir, candidate), "--fp"])
        assert result.exit_code == 0
        assert result.output == f"symmetry ({kind})\n"
        assert len(built) == 1

    def test_parse_error_exit_two(self, runner, fixtures_dir, tmp_path):
        bad = tmp_path / "bad.sde"
        bad.write_text("vars x\nnoises w\ndrift x = 1 +\n")
        result = runner.invoke(main, ["check", str(bad),
                                      fx(fixtures_dir, "heat_v1.cand")])
        assert result.exit_code == 2

    def test_repeated_noise_name_exit_two(self, runner, fixtures_dir,
                                          tmp_path):
        bad = tmp_path / "twice.sde"
        bad.write_text("vars x\nnoises w w\nsigma x w = 1\n")
        result = runner.invoke(main, ["check", str(bad),
                                      fx(fixtures_dir, "heat_v1.cand")])
        assert result.exit_code == 2
        assert "line 2" in result.stderr

    def test_radical_zero_is_not_a_nonzero(self, runner, fixtures_dir,
                                           tmp_path):
        """The drift coefficient sqrt(3 + 2 sqrt(2)) - 1 - sqrt(2) is 0, so
        the drift vanishes and every translation is a symmetry."""
        sde = tmp_path / "radical.sde"
        sde.write_text("vars x\nnoises w\n"
                       "drift x = (sqrt(3 + 2*sqrt(2)) - 1 - sqrt(2)) * x^2\n"
                       "sigma x w = 1\n")
        result = runner.invoke(main, ["check", str(sde),
                                      fx(fixtures_dir, "heat_v2.cand")])
        assert result.exit_code in (0, 3)

    def test_fp_classification(self, runner, fixtures_dir):
        result = runner.invoke(main, ["check", fx(fixtures_dir, "rotating.sde"),
                                      fx(fixtures_dir, "rotating_dt.cand"),
                                      "--fp", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["classification"] == "statistical_equivalence"

    def test_w_candidate(self, runner, fixtures_dir):
        result = runner.invoke(main, ["check", fx(fixtures_dir, "langevin2.sde"),
                                      fx(fixtures_dir, "langevin_wrot.cand")])
        assert result.exit_code == 0

    def test_fp_refuses_w_candidate(self, runner, fixtures_dir):
        result = runner.invoke(main, ["check", fx(fixtures_dir, "langevin2.sde"),
                                      fx(fixtures_dir, "langevin_wrot.cand"),
                                      "--fp"])
        assert result.exit_code == 2
        assert (result.stderr.strip()
                == "--fp applies to vector-field candidates only")

    def test_undecided_b_entries_exit_three(self, runner, fixtures_dir,
                                            tmp_path, monkeypatch):
        import stosym.kernel as kernel
        cand = tmp_path / "mixer.cand"
        cand.write_text("B[1][2] = 1\nB[2][1] = -1\n")
        monkeypatch.setattr(kernel, "zero_verdict",
                            lambda e: kernel.Verdict.INCONCLUSIVE)
        # detsys runs no zero test of its own: the exit comes from loading
        result = runner.invoke(main, ["detsys", fx(fixtures_dir, "langevin2.sde"),
                                      str(cand)])
        assert result.exit_code == 3

    def test_discrete_candidate(self, runner, fixtures_dir):
        result = runner.invoke(main, ["check", fx(fixtures_dir, "langevin2.sde"),
                                      fx(fixtures_dir, "langevin_reflect.cand")])
        assert result.exit_code == 0


ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = json.loads((ROOT / "tests" / "data" / "cli_snapshot.json")
                      .read_text())
MANIFEST = json.loads((ROOT / "src" / "stosym" / "fixtures" / "manifest.json")
                      .read_text())["checks"]
_FP_KINDS = {"fp", "normalization", "classification"}


def _equations(stdout):
    return [[q["label"], q["verdict"], q["residual"]]
            for q in json.loads(stdout)["equations"]]


# (label, verdict, residual) of every equation of `check --json` (with
# `--fp` for the Fokker-Planck kinds) on the 48 manifest entries, as
# tests/data/cli_snapshot.json records them. Only these fields are
# compared, so that additive report keys do not break the test.
@pytest.mark.parametrize("entry", MANIFEST, ids=lambda e: "{}:{}:{}".format(
    e["system"], e["candidate"], e["check"]))
def test_manifest_check_golden(runner, fixtures_dir, entry):
    fp = ["--fp"] if entry["check"] in _FP_KINDS else []
    args = ["check", fx(fixtures_dir, entry["system"]),
            fx(fixtures_dir, entry["candidate"]), "--json", *fp]
    golden = SNAPSHOT[" ".join(["check", *(
        f"src/stosym/fixtures/{entry[k]}" for k in ("system", "candidate")),
        "--json", *fp])][1]
    assert (_equations(runner.invoke(main, args).output)
            == _equations(golden))


# [exit code, stdout] of `detsys --json` for three failing Fokker-Planck
# candidates (heat in the ring; kramers with exp(t) in xi; a system whose A
# is not a polynomial) and of `derive-fp --json` for the fixture systems,
# as tests/data/cli_snapshot.json records them. Paths in the commands are
# relative to the repository root.
FP_GOLDEN = [
    *(f"detsys {system} tests/data/{candidate}_fp_fail.cand --json"
      for system, candidate in (("src/stosym/fixtures/heat.sde", "heat"),
                                ("src/stosym/fixtures/kramers.sde", "kramers"),
                                ("tests/data/expnoise.sde", "expnoise"))),
    *(f"derive-fp src/stosym/fixtures/{system} --json" for system in (
        "heat.sde", "kramers.sde", "rotating.sde", "langevin2.sde",
        "langevin2_amp.sde", "langevin4.sde", "norm_coupled2.sde")),
]


@pytest.mark.parametrize("command", FP_GOLDEN, ids=lambda c: " ".join(
    Path(a).name for a in c.split()[:3]))
def test_fp_golden(runner, command):
    args = [str(ROOT / a) if (ROOT / a).is_file() else a
            for a in command.split()]
    result = runner.invoke(main, args)
    assert [result.exit_code, result.stdout] == SNAPSHOT[command][:2]


@pytest.mark.parametrize("args, steps", [
    (("kramers.sde", "kramers_v6.cand", "--fp"), 0),
    (("langevin2.sde", "langevin_wrot_ratio.cand"), 0),
    (("rotating.sde", "rotating_dt.cand"), 4),
], ids=["kramers_v6-fp", "langevin_wrot_ratio", "rotating_dt"])
def test_normalize_loop_calls_pinned(runner, fixtures_dir, args, steps):
    """Expression-path checks compute the general normalizer's steps for
    each value outside the exact domain once: at parse, when a builder
    emits a raw residual, or in a zero test of a raw sum. Normalizing a
    value again, in a constructor, `check` or the JSON report, finds its
    fixpoint in sympy's cache. The cache is cleared first, so every
    computed step is a miss. Parameter denominators and radicals (kramers,
    langevin2) lie in the domain and compute none."""
    from sympy.core.cache import clear_cache
    import stosym.kernel as kernel
    system, candidate, *options = args
    clear_cache()
    result = runner.invoke(main, ["check", fx(fixtures_dir, system),
                                  fx(fixtures_dir, candidate), "--json",
                                  *options])
    assert result.exit_code in (0, 1)
    assert kernel._normalize_step.cache_info().misses == steps


def test_manifest_checks_leave_the_domain_only_on_trig(runner, fixtures_dir,
                                                     manifest, monkeypatch):
    """Over the distinct `check` commands of the fixture manifest, each
    from an empty sympy cache: the determining systems are built on
    expressions (`ItoSystem._of`) only for the rotating system, whose sigma
    holds sin and cos, the zero test's probe runs only there, and every
    input of the general normalizer holds sin or cos. Everything else
    (parameter denominators, radicals, exp(c t)) stays in the exact
    domain."""
    import sympy as sp
    from sympy.core.cache import clear_cache
    from stosym import kernel, model
    commands = []
    for entry in manifest["checks"]:
        args = ["check", fx(fixtures_dir, entry["system"]),
                fx(fixtures_dir, entry["candidate"])]
        if entry["check"] in ("fp", "normalization", "classification"):
            args += ["--fp", "--json"]
        if args not in commands:
            commands.append(args)
    assert len(commands) == 34
    calls = {"of": [], "probe": [], "loop": []}

    def spy(name, function):
        def counted(*args):
            result = function(*args)
            calls[name].append((system, args[0], result))
            return result
        return counted
    monkeypatch.setattr(model.ItoSystem, "_of", spy("of", model.ItoSystem._of))
    monkeypatch.setattr(kernel, "_probe", spy("probe", kernel._probe))
    monkeypatch.setattr(kernel, "_normalize_loop",
                        spy("loop", kernel._normalize_loop))
    for args in commands:
        system = Path(args[1]).name
        clear_cache()
        assert runner.invoke(main, args).exit_code in (0, 1)
    on_exprs = [s for s, _, (c, _) in calls["of"] if c.calc is model._EXPRS]
    assert (len(calls["of"]), on_exprs) == (41, ["rotating.sde"] * 4)
    assert [s for s, _, _ in calls["probe"]] == ["rotating.sde"] * 5
    assert calls["loop"] and all(e.has(sp.sin, sp.cos)
                                 for _, e, _ in calls["loop"])


class TestDetsys:
    def test_symbolic_unknowns(self, runner, fixtures_dir):
        result = runner.invoke(main, ["detsys", fx(fixtures_dir, "heat.sde"),
                                      "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        labels = {e["label"] for e in data["equations"]}
        assert labels == {"Lambda[1]", "Gamma[1][1]"}
        assert any("xi_x" in e["residual"] for e in data["equations"])

    def test_with_candidate(self, runner, fixtures_dir):
        result = runner.invoke(main, ["detsys", fx(fixtures_dir, "heat.sde"),
                                      fx(fixtures_dir, "heat_v5.cand"), "--json"])
        data = json.loads(result.output)
        assert all(e["residual"] == "0" for e in data["equations"])


class TestSolve:
    def test_heat_dimension(self, runner, fixtures_dir):
        result = runner.invoke(main, ["solve", fx(fixtures_dir, "heat.sde"),
                                      "--degree", "1", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["dimension"] == 3

    @pytest.mark.parametrize("tokens", [["exp:0"], ["exp:1", "exp:-1"]],
                             ids=["exp0", "exp1-exp-1"])
    def test_dependent_time_basis(self, runner, fixtures_dir, tokens):
        """A repeated time-basis element adds no generator."""
        heat = fx(fixtures_dir, "heat.sde")
        default = runner.invoke(main, ["solve", heat, "--json"])
        args = [a for tok in tokens for a in ("--time-basis", tok)]
        result = runner.invoke(main, ["solve", heat, "--json", *args])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["dimension"] == 3
        assert data["generators"] == json.loads(default.output)["generators"]

    def test_bad_basis_token(self, runner, fixtures_dir):
        result = runner.invoke(main, ["solve", fx(fixtures_dir, "heat.sde"),
                                      "--time-basis", "cheb:3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("system,args,message", [
        ("heat.sde", ["--degree", "-1"], "degree must be >= 0"),
        ("heat.sde", ["--time-basis", "exp:x"], "spatial variables"),
        ("rotating.sde", [], "not polynomial over the ansatz monomials"),
    ])
    def test_unusable_ansatz_exit_two(self, runner, fixtures_dir, system,
                                      args, message):
        result = runner.invoke(main, ["solve", fx(fixtures_dir, system)] + args)
        assert result.exit_code == 2
        assert message in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1


class TestSimulateAndMc:
    def test_simulate_writes_binary(self, runner, fixtures_dir, tmp_path):
        out = tmp_path / "ens.bin"
        result = runner.invoke(main, [
            "simulate", fx(fixtures_dir, "heat.sde"), "--x0", "0",
            "--n-paths", "50", "--dt", "0.01", "--param", "s0=1",
            "--out", str(out), "--json"])
        assert result.exit_code == 0
        from stosym.mcsim import load_binary
        ens = load_binary(out)
        assert ens.n_paths == 50

    def test_mc_check_pass(self, runner, fixtures_dir):
        result = runner.invoke(main, [
            "mc-check", fx(fixtures_dir, "heat.sde"),
            fx(fixtures_dir, "heat_v2.cand"), "--x0", "0",
            "--n-paths", "1500", "--param", "s0=1"])
        assert result.exit_code == 0
        assert "pass" in result.output

    @pytest.mark.parametrize("command", ["simulate", "mc-check"])
    def test_unbound_param_exit_two(self, runner, fixtures_dir, tmp_path,
                                    command):
        args = [command, fx(fixtures_dir, "heat.sde")]
        if command == "mc-check":
            args.append(fx(fixtures_dir, "heat_v2.cand"))
        else:
            args += ["--out", str(tmp_path / "ens.bin")]
        result = runner.invoke(main, args + ["--x0", "0", "--n-paths", "10"])
        assert result.exit_code == 2
        assert "unbound: s0" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["simulate", "mc-check"])
    @pytest.mark.parametrize("option,value", [
        ("--param", "s0=abc"), ("--param", "s0=nan"), ("--param", "s0=inf"),
        ("--param", "zz=2"), ("--param", "x=1"), ("--param", "s0"),
        ("--x0", "a"), ("--x0", "0,0"), ("--n-paths", "0"),
        ("--dt", "nan"), ("--t1", "inf"), ("--t1", "nan")])
    def test_bad_numeric_option_exit_two(self, runner, fixtures_dir, tmp_path,
                                         command, option, value):
        """Rejected before any simulation: exit 2 with one stderr line, and
        no ensemble file. The bad value comes last, after a usable one."""
        out = tmp_path / "ens.bin"
        args = [command, fx(fixtures_dir, "heat.sde")]
        if command == "mc-check":
            args.append(fx(fixtures_dir, "heat_v2.cand"))
        else:
            args += ["--out", str(out)]
        result = runner.invoke(main, args + [
            "--x0", "0", "--param", "s0=1", "--n-paths", "10", option, value])
        assert result.exit_code == 2
        assert len(result.stderr.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("candidate", ["scale", "heat_v4.cand"])
    def test_mc_check_non_symmetry_exit_one(self, runner, fixtures_dir,
                                            tmp_path, candidate):
        """`check` calls both not_symmetry: the moved ensemble must differ
        from the heat equation started at the moved point."""
        if candidate == "scale":
            path = tmp_path / "scale.cand"
            path.write_text("candidate scale\nxi x = x\n")
        else:
            path = fixtures_dir / candidate
        result = runner.invoke(main, [
            "mc-check", fx(fixtures_dir, "heat.sde"), str(path),
            "--x0", "0.3", "--param", "s0=1", "--n-paths", "4000"])
        assert result.exit_code == 1
        assert result.output.strip() == "fail"

    def test_mc_check_w_candidate(self, runner, fixtures_dir):
        result = runner.invoke(main, [
            "mc-check", fx(fixtures_dir, "langevin2.sde"),
            fx(fixtures_dir, "langevin_wrot.cand"), "--x0", "0.5,0.1",
            "--param", "s1=1", "--param", "s2=1", "--dt", "0.01", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["verdict"] == "pass"
        assert report["schema"] == 2
        assert report["min_pvalue"] >= report["significance"] / report["n_tests"]
        worst = min(report["entries"], key=lambda e: e["ks_pvalue"])
        assert report["worst_slice"] == {"time": worst["time"],
                                         "coordinate": worst["coordinate"]}

    @pytest.mark.parametrize("option,value", [
        ("--significance", "0"), ("--significance", "1"),
        ("--n-paths", "1")])
    def test_mc_check_unusable_comparison_exit_two(self, runner, fixtures_dir,
                                                   option, value):
        result = runner.invoke(main, [
            "mc-check", fx(fixtures_dir, "heat.sde"),
            fx(fixtures_dir, "heat_v2.cand"), "--x0", "0", "--param", "s0=1",
            "--n-paths", "10", option, value])
        assert result.exit_code == 2
        assert len(result.stderr.strip().splitlines()) == 1

    def test_mc_check_time_component_exit_two(self, runner, fixtures_dir):
        result = runner.invoke(main, [
            "mc-check", fx(fixtures_dir, "heat.sde"),
            fx(fixtures_dir, "heat_v5.cand"), "--x0", "0", "--n-paths", "10",
            "--param", "s0=1"])
        assert result.exit_code == 2
        assert "tau = 0" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_mc_check_w_time_component_exit_two(self, runner, fixtures_dir,
                                                tmp_path):
        cand = tmp_path / "w_time.cand"
        cand.write_text("candidate w_time\ntau = 1\nB[1][2] = 1\n")
        result = runner.invoke(main, [
            "mc-check", fx(fixtures_dir, "langevin2.sde"), str(cand),
            "--x0", "0,0", "--n-paths", "10", "--param", "s1=1",
            "--param", "s2=1"])
        assert result.exit_code == 2
        assert "tau = 0" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1


def test_symbolic_import_leaves_scipy_unloaded():
    code = ("import sys, stosym, stosym.cli\n"
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'\n"
            "from stosym import euler_maruyama, compare_ensembles\n"
            "assert 'scipy.stats' in sys.modules\n")
    src = str(Path(stosym.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


_KPZ_CHECKS = ("time-shift", "h-shift", "site-shift", "inversion:2",
               "h-inversion")
_KPZ_PARAMS = {"symbolic": [], "beta0": ["--beta", "0"],
               "float": ["--alpha", "0.5", "--beta", "0.1"]}


def _kpz_cases():
    """(sites, check, parameter options, exit code), the codes recorded on
    the chain-specific tensor checks: only the height inversion of a chain
    with b != 0 is not a symmetry."""
    cases = [pytest.param(5, which, [], int(which == "h-inversion"),
                          id=f"{which}-{int(which == 'h-inversion')}")
             for which in _KPZ_CHECKS]
    for n in (3, 8):
        for label, args in _KPZ_PARAMS.items():
            for which in _KPZ_CHECKS:
                code = int(which == "h-inversion" and label != "beta0")
                cases.append(pytest.param(n, which, args, code,
                                          id=f"N{n}-{label}-{which}-{code}"))
    return cases


class TestKpz:
    @pytest.mark.parametrize("sites,which,args,code", _kpz_cases())
    def test_named_checks(self, runner, sites, which, args, code):
        result = runner.invoke(main, ["kpz", "--sites", str(sites),
                                      "--check", which, *args])
        assert result.exit_code == code

    def test_linear_limit(self, runner):
        result = runner.invoke(main, ["kpz", "--sites", "5", "--beta", "0",
                                      "--check", "h-inversion", "--json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["overall"] == "symmetry"
        assert data["schema"] == 2

    def test_parameters_read_exactly(self, runner):
        result = runner.invoke(main, ["kpz", "--sites", "3", "--alpha", "0.5",
                                      "--beta", "0.1", "--check",
                                      "h-inversion", "--json"])
        assert result.exit_code == 1
        drift = json.loads(result.output)["equations"][0]
        assert drift == {"label": "drift[1]", "verdict": "nonzero",
                         "residual": "-x2^2/5 + 2*x2*x3/5 - x3^2/5"}

    @pytest.mark.parametrize("value", ["foo", "1/0", "I", "len('abcd')",
                                       "t", "2^99"])
    def test_non_real_parameter_exit_two(self, runner, value):
        """--alpha is read by the expression language, never evaluated as
        Python, and must be a real number free of symbols."""
        result = runner.invoke(main, ["kpz", "--sites", "3", "--alpha", value,
                                      "--check", "site-shift"])
        assert result.exit_code == 2
        assert "not a real number" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_unknown_check(self, runner):
        result = runner.invoke(main, ["kpz", "--sites", "5",
                                      "--check", "rotate"])
        assert result.exit_code == 2

    def test_too_few_sites_exit_two(self, runner):
        result = runner.invoke(main, ["kpz", "--sites", "2",
                                      "--check", "time-shift"])
        assert result.exit_code == 2
        assert "at least 3 sites" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1


class TestExitContract:
    """Every failure maps to its documented exit code with one line on
    stderr: 2 rejected input, 3 inconclusive, 4 blow-up; any other
    exception is an internal error, 5, with its traceback."""

    @staticmethod
    def _undecided(e):
        return stosym.kernel.Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("which", ["time-shift", "h-shift"])
    def test_kpz_continuous_inconclusive_exit_three(self, runner, monkeypatch,
                                                    which):
        monkeypatch.setattr(stosym.verify, "zero_verdict", self._undecided)
        result = runner.invoke(main, ["kpz", "--sites", "5", "--check", which])
        assert result.exit_code == 3
        assert result.output.strip() == "inconclusive"

    @pytest.mark.parametrize("which", ["site-shift", "inversion:2",
                                       "h-inversion"])
    def test_kpz_discrete_inconclusive_exit_three(self, runner, monkeypatch,
                                                  which):
        monkeypatch.setattr(stosym.kernel, "zero_verdict", self._undecided)
        result = runner.invoke(main, ["kpz", "--sites", "5", "--check", which])
        assert result.exit_code == 3
        assert result.stderr.startswith("inconclusive:")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("verdict, code, prefix", [
        ("INCONCLUSIVE", 3, "inconclusive:"), ("NONZERO", 2, "solve:")])
    def test_solve_reverification_exit_code(self, runner, fixtures_dir,
                                            monkeypatch, verdict, code,
                                            prefix):
        """An undecided re-verification of a solver generator is
        inconclusive (3); a failed one is rejected input (2)."""
        answer = stosym.kernel.Verdict[verdict]
        monkeypatch.setattr(stosym.verify, "zero_verdict", lambda e: answer)
        result = runner.invoke(main, ["solve", fx(fixtures_dir, "heat.sde"),
                                      "--json"])
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr.startswith(prefix)
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("which", ["inversion:x", "inversion:"])
    def test_kpz_bad_inversion_site_exit_two(self, runner, which):
        result = runner.invoke(main, ["kpz", "--sites", "5", "--check", which])
        assert result.exit_code == 2
        assert "integer site" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_check_fp_inconclusive_exit_three(self, runner, fixtures_dir,
                                              monkeypatch):
        monkeypatch.setattr(stosym.kernel, "zero_verdict", self._undecided)
        result = runner.invoke(main, ["check", fx(fixtures_dir, "heat.sde"),
                                      fx(fixtures_dir, "heat_v2.cand"),
                                      "--fp", "--json"])
        assert result.exit_code == 3
        assert result.stderr.startswith("inconclusive:")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["derive-fp", "check --fp", "check",
                                         "detsys"])
    def test_degenerate_system_exit_two(self, runner, tmp_path, command):
        """A candidate with beta needs the Fokker-Planck equation, which a
        degenerate system does not have."""
        system = tmp_path / "flat.sde"
        system.write_text("vars x\nnoises w\ndrift x = -x\nsigma x w = 0\n")
        cand = tmp_path / "shift.cand"
        cand.write_text("xi x = 1\nbeta = 0\n")
        name, *flags = command.split()
        files = [str(system)] if name == "derive-fp" else [str(system), str(cand)]
        result = runner.invoke(main, [name, *files, *flags, "--json"])
        assert result.exit_code == 2
        assert "vanishes identically" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["derive-fp", "detsys"])
    def test_undecided_degeneracy_exit_three(self, runner, fixtures_dir,
                                             monkeypatch, command):
        """The zero test decides degeneracy on the expression path only:
        in the exact domain S == 0 decides it."""
        monkeypatch.setattr(stosym.kernel, "zero_verdict", self._undecided)
        data = ROOT / "tests" / "data"
        files = [str(data / "expnoise.sde")]
        if command == "detsys":
            files.append(str(data / "expnoise_fp_fail.cand"))
        result = runner.invoke(main, [command, *files, "--json"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("inconclusive:")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["check", "detsys"])
    def test_undecided_orthogonality_exit_three(self, runner, fixtures_dir,
                                                monkeypatch, command):
        monkeypatch.setattr(stosym.kernel, "zero_verdict", self._undecided)
        result = runner.invoke(main, [command, fx(fixtures_dir, "langevin2.sde"),
                                      fx(fixtures_dir, "langevin_reflect.cand"),
                                      "--json"])
        assert result.exit_code == 3
        assert result.stderr.startswith("inconclusive:")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["simulate", "mc-check"])
    def test_blowup_exit_four(self, runner, tmp_path, command):
        system = tmp_path / "cubic.sde"
        system.write_text("system cubic\nvars x\nnoises w\n"
                          "drift x = x^3\nsigma x w = 1\n")
        args = [command, str(system)]
        if command == "mc-check":
            cand = tmp_path / "shift.cand"
            cand.write_text("candidate shift\nxi x = 1\n")
            args.append(str(cand))
        else:
            args += ["--out", str(tmp_path / "ens.bin")]
        result = runner.invoke(main, args + ["--x0", "50", "--dt", "0.01",
                                             "--n-paths", "20"])
        assert result.exit_code == 4
        assert result.stderr.startswith(f"{command}: non-finite value in path")
        assert "step" in result.stderr and "t=" in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_moved_blowup_exit_four(self, runner, fixtures_dir, tmp_path):
        """The flow of xi = exp(x) leaves the finite numbers before
        epsilon = 2 from x = 1: one line naming the moved path, no
        traceback."""
        cand = tmp_path / "exp.cand"
        cand.write_text("candidate exp\nxi x = exp(x)\n")
        result = runner.invoke(main, [
            "mc-check", fx(fixtures_dir, "heat.sde"), str(cand), "--x0", "1",
            "--param", "s0=1", "--n-paths", "20", "--dt", "0.01",
            "--epsilon", "2"])
        assert result.exit_code == 4
        assert result.stderr.startswith(
            "mc-check: non-finite moved value in path 0 at step 0")
        assert len(result.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("layer, args", [
        ("verify.zero_verdict", ["check", "heat.sde", "heat_v1.cand"]),
        ("kpz.kpz_ito", ["kpz", "--sites", "3", "--check", "time-shift"]),
        ("solve._coefficient_matrix", ["solve", "heat.sde"]),
        ("mcsim.euler_maruyama", ["simulate", "heat.sde", "--x0", "0",
                                  "--param", "s0=1", "--out", "ens.bin"]),
    ], ids=["check", "kpz", "solve", "simulate"])
    def test_internal_error_exit_five(self, runner, fixtures_dir, monkeypatch,
                                      tmp_path, layer, args):
        """A crash in any layer exits 5 with its traceback, never 1, which
        reads as "not a symmetry"."""
        import importlib
        module, name = layer.split(".")

        def crash(*args, **kwargs):
            raise RuntimeError("crash in " + layer)
        monkeypatch.setattr(importlib.import_module(f"stosym.{module}"), name,
                            crash)
        monkeypatch.chdir(tmp_path)
        result = runner.invoke(main, [
            fx(fixtures_dir, a) if a.endswith((".sde", ".cand")) else a
            for a in args])
        assert result.exit_code == 5
        assert result.stdout == ""
        assert result.stderr.startswith("Traceback (most recent call last):")
        assert result.stderr.strip().endswith(
            f"RuntimeError: crash in {layer}")
