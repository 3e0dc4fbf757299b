"""Run a fixed list of stosym CLI commands in process and write
{command: [exit code, stdout, stderr]} as JSON.

Two trees, or one tree under two hash seeds, give the same exit code,
stdout and stderr on every command iff their files are equal:

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/cli_snapshot.py snap0.json
    PYTHONHASHSEED=1 PYTHONPATH=src python tools/cli_snapshot.py snap1.json
    cmp snap0.json snap1.json

tests/data/cli_snapshot.json holds this tree's snapshot under
PYTHONHASHSEED=0, and CI compares a fresh one with it; a change that
alters output regenerates it:

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/cli_snapshot.py tests/data/cli_snapshot.json

Commands name their files relative to the repository root, so snapshots
of two checkouts compare key by key.
"""
from __future__ import annotations

import argparse
import json
import shlex
from pathlib import Path

from click.testing import CliRunner

from stosym.cli import main as cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = "src/stosym/fixtures/"
DATA = "tests/data/"
FP_KINDS = {"fp", "normalization", "classification"}

# Fokker-Planck output that is not all zero; tests/test_cli.py compares
# [exit code, stdout] of these commands with the snapshot
GOLDEN = [
    f"detsys {FIXTURES}heat.sde {DATA}heat_fp_fail.cand --json",
    f"detsys {FIXTURES}kramers.sde {DATA}kramers_fp_fail.cand --json",
    f"detsys {DATA}expnoise.sde {DATA}expnoise_fp_fail.cand --json",
    *(f"derive-fp {FIXTURES}{system} --json" for system in (
        "heat.sde", "kramers.sde", "rotating.sde", "langevin2.sde",
        "langevin2_amp.sde", "langevin4.sde", "norm_coupled2.sde")),
]


def commands():
    """Every command once, in a fixed order."""
    manifest = json.loads((ROOT / FIXTURES / "manifest.json").read_text())
    checks, systems = manifest["checks"], manifest["systems"]
    out = []
    for entry in checks:
        fp = " --fp" if entry["check"] in FP_KINDS else ""
        out.append(f"check {FIXTURES}{entry['system']} "
                   f"{FIXTURES}{entry['candidate']} --json{fp}")
    out += [f"detsys {FIXTURES}{e['system']} {FIXTURES}{e['candidate']} --json"
            for e in checks]
    for system in systems:
        out += [f"derive-fp {FIXTURES}{system} --json",
                f"detsys {FIXTURES}{system} --json", f"detsys {FIXTURES}{system}"]
    out += [f"solve {FIXTURES}{system} --json {options}" for system in systems
            for options in ("--degree 1", "--degree 2", "--with-b",
                            "--time-basis exp:1")]
    # exponential time-basis elements on ring systems, a symbolic rate and
    # linearly dependent bases
    out += [f"solve {DATA}ou.sde --time-basis exp:a{fmt}" for fmt in ("", " --json")]
    out += [f"solve {DATA}ou.sde --degree 2 --with-b --time-basis exp:a --json",
            f"solve {DATA}ou1.sde --time-basis exp:1 --time-basis exp:2",
            f"solve {DATA}ou1.sde --time-basis exp:1 --time-basis exp:2 --json",
            f"solve {FIXTURES}heat.sde --time-basis exp:0 --json",
            f"solve {FIXTURES}heat.sde --time-basis exp:1 --time-basis exp:-1 --json",
            f"solve {FIXTURES}norm_coupled2.sde --degree 2 --with-b "
            "--time-basis exp:2 --json"]
    # radicals: sqrt of a positive parameter, also where a rate meets it,
    # and sqrt(2) as the common radical of sigma, scaled out of the noise
    out += [f"solve {FIXTURES}langevin2.sde --with-b --time-basis exp:1 "
            "--time-basis exp:2 --json",
            f"solve {FIXTURES}langevin2.sde --time-basis exp:s1 --json",
            f"solve {FIXTURES}kramers.sde --degree 2 --time-basis exp:k^2 --json"]
    # a radical that is not a common factor of sigma
    out += [f"solve {DATA}mixedradical.sde --with-b --time-basis exp:1 --json",
            f"detsys {DATA}mixedradical.sde --json",
            f"derive-fp {DATA}mixedradical.sde --json"]
    # exponentials in the drift and the noise, one of them shifted by a
    # constant, and sqrt of a parameter declared only nonzero
    out += [f"solve {DATA}{system} --time-basis exp:1 --time-basis exp:2{fmt}"
            for system in ("expshift.sde", "expdrift.sde", "nonzeroroot.sde")
            for fmt in ("", " --json")]
    out += [f"kpz --sites {n} {params}--check {which} --json"
            for n in (3, 5, 8)
            for params in ("", "--beta 0 ", "--alpha 1 ",
                           "--alpha 2 --beta 1/3 ", "--alpha 0.5 --beta 0.1 ")
            for which in ("time-shift", "h-shift", "site-shift",
                          "inversion:1", "h-inversion")]
    # a coupling that is not a number of the expression language
    out.append("kpz --sites 3 --alpha \"len('abcd')\" --check time-shift")
    out += [
        f"mc-check {FIXTURES}langevin2.sde {FIXTURES}langevin_reflect.cand "
        "--x0 0.5,-0.3 --t1 0.5 --dt 0.01 --n-paths 2000 "
        "--param s1=1 --param s2=0.5 --json",
        f"mc-check {FIXTURES}heat.sde {FIXTURES}heat_v2.cand --x0 0.2 "
        "--t1 0.5 --dt 0.01 --n-paths 2000 --param s0=1 --json",
        # a manifest not_symmetry entry, and a W candidate
        f"mc-check {FIXTURES}heat.sde {FIXTURES}heat_v4.cand --x0 0.2 "
        "--t1 0.5 --dt 0.01 --n-paths 2000 --param s0=1 --json",
        f"mc-check {FIXTURES}langevin2.sde {FIXTURES}langevin_wrot.cand "
        "--x0 0.5,0.1 --t1 0.5 --dt 0.01 --n-paths 2000 "
        "--param s1=0.7 --param s2=0.3 --json",
        f"simulate {FIXTURES}heat.sde --x0 0 --t1 0.1 --dt 0.01 "
        "--n-paths 100 --param s0=1 --out paths.bin --json",
        *GOLDEN,
    ]
    return list(dict.fromkeys(out))


def run(command, runner):
    """[exit code, stdout, stderr] of one command; the fixture and data
    files it names are resolved against the repository root, and anything
    written lands in the runner's directory."""
    args = [str(ROOT / a) if a.startswith((FIXTURES, DATA)) else a
            for a in shlex.split(command)]
    result = runner.invoke(cli, args)
    return [result.exit_code, result.stdout, result.stderr]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="JSON file to write")
    args = parser.parse_args(argv)
    runner = CliRunner()
    with runner.isolated_filesystem():
        snapshot = {c: run(c, runner) for c in commands()}
    Path(args.out).write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"{len(snapshot)} commands -> {args.out}")


if __name__ == "__main__":
    main()
