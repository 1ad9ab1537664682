"""Save the output of a fixed set of refcalc commands, one file per stream.

    python tools/cli_snapshot.py OUTDIR [--root CHECKOUT]

Writes the benchmark's diverged, spoiler and turnout scenarios, read from
perfbench/workloads.py, into OUTDIR (also with the two oracle sizes as sim
blocks, each validated at SEED and SECOND_SEED), and the EVALUATED
scenarios, then runs every command in COMMANDS as
`python -m refcalc.cli` with OUTDIR as its working directory. Paths are
relative to OUTDIR, so what a command prints does not depend on where OUTDIR
is. Command NAME leaves NAME.csv (its --out), NAME.stdout, NAME.stderr and
NAME.exit (the exit code). Every command should exit 0, except those
EXPECTED_EXIT names. Each NAME_threads2 sweep should leave the same bytes
as its serial twin NAME.

Two snapshots of the same code must be equal under `diff -r`: that checks
that the outputs are deterministic. A snapshot of a parent commit and one of
a change compare their outputs byte for byte. --root runs the refcalc in
CHECKOUT/src instead of this checkout's; the scenarios always come from this
checkout, so both sides read the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE / "perfbench"))

import workloads as wl  # noqa: E402

# Oracle sizes for validate: small enough that every scenario runs in seconds.
COUNTS = {"n_policy_voters": 20_000, "n_replications": 2_000, "agent_level": False}
AGENTS = {"n_policy_voters": 2_000, "n_replications": 200, "agent_level": True}
SEED = "5"
# validate also runs at a second seed, so twelve oracle outputs are compared.
SECOND_SEED = "6"

SCENARIOS = {"diverged": wl.DIVERGED, "spoiler": wl.SPOILER, "turnout": wl.TURNOUT}
# Evaluated, and the first two also swept: the diverged scenario under a
# binding referendum and at b_R = -0.1 (an aligned start), whose congruence
# deltas take the pieces around gamma_star; the diverged scenario on the
# r = 1/2 knife edge, where the traditional delta is empty; the diverged
# scenario at mu = 0.9, where the win map saturates and the win integrals
# split at its kinks; the spoiler scenario there, whose net benefit
# subtracts the split two-party gap; three saturating spoiler electorates,
# one whose kinks a clipped-map quadrature missed by 4.8e-7, one with a narrow
# taste under a wide shock, where the spoiler map's slope underflows away
# from its kernels' centres, and one where the spoiler raises Right's chance
# of finishing ahead of Left although r KR exceeds (1-r) KL, the comparison of
# the unclamped spoiler kernels over the whole line; one whose cohesion
# kernels both underflow to 0, so r_bind has no root; and two sim blocks the
# loader rejects with exit 2, one with a non-boolean agent_level and one with
# the unknown key continuum_tally.
EVALUATED = {
    "binding": {**wl.DIVERGED, "regime": "binding"},
    "aligned": {**wl.DIVERGED, "b_R": -0.1},
    "knife_edge": {**wl.DIVERGED, "r": 0.5},
    "saturated": {**wl.DIVERGED, "mu": 0.9, "r": 0.52},
    "spoiler_saturated": {**wl.SPOILER, "mu": 0.9, "r": 0.52},
    "spoiler_missed": {
        **wl.SPOILER, "r": 0.44, "mu": 0.79, "p": 0.44, "b_L": -0.32, "b_R": -0.1,
        "taste": {"family": "normal", "scale": 0.47},
        "shock": {"family": "normal", "scale": 0.21},
        "third_party": {"v": -0.03},
    },
    "spoiler_plateau": {
        **wl.SPOILER, "r": 0.416, "mu": 0.806, "p": 0.186, "b_L": -0.767, "b_R": -0.562,
        "taste": {"family": "normal", "scale": 0.051},
        "shock": {"family": "normal", "scale": 0.619},
        "third_party": {"v": -0.155},
    },
    "spoiler_better_off": {
        **wl.SPOILER, "r": 0.43, "mu": 0.82, "p": 0.1, "b_L": -0.8, "b_R": -0.73,
        "taste": {"family": "normal", "scale": 0.106},
        "shock": {"family": "normal", "scale": 0.77},
        "third_party": {"v": -0.12},
    },
    "underflow": {
        "r": 0.5, "mu": 0.5, "p": 3.0, "b_L": -1.0, "b_R": 1.2,
        "taste": {"family": "normal", "scale": 0.05},
        "shock": {"family": "normal", "scale": 0.1},
    },
    "sim_agent_level_int": {**wl.DIVERGED, "sim": {"agent_level": 1}},
    "sim_continuum_tally": {**wl.DIVERGED, "sim": {"continuum_tally": False}},
}
EXPECTED_EXIT = {
    "eval_underflow": 3, "sweep_underflow_p": 3, "sweep_underflow_p_threads2": 3,
    "eval_sim_agent_level_int": 2, "eval_sim_continuum_tally": 2,
}


def _sweep(scenario, var, lo, hi, steps, quantities, *extra):
    return ["sweep", f"{scenario}.json", "--var", var, "--from", lo, "--to", hi,
            "--steps", str(steps), "--quantities", ",".join(quantities), *extra]


def _commands():
    yield from ((f"eval_{name}", ["eval", f"{name}.json"]) for name in (*SCENARIOS, *EVALUATED))
    yield "sweep_r", _sweep("diverged", "r", "0.3", "0.6", 41, wl.SWEEP_QUANTITIES)
    b_R = ("diverged", "b_R", "-0.4", "0.4", 17, (*wl.SWEEP_QUANTITIES, "r_star"))
    yield "sweep_b_R", _sweep(*b_R)
    yield "sweep_b_R_threads2", _sweep(*b_R, "--threads", "2")
    # Both congruence deltas where the referendum moves the pieces around
    # gamma_star: a binding referendum, and an aligned start up to mu = 0.9,
    # where the win map saturates.
    yield "sweep_r_binding", _sweep(
        "binding", "r", "0.3", "0.6", 13, ("delta_second", "delta_traditional", "net_benefit"))
    yield "sweep_aligned_mu", _sweep(
        "aligned", "mu", "0.3", "0.9", 13, ("delta_second", "delta_traditional"))
    yield "sweep_spoiler_r", _sweep(
        "spoiler", "r", "0.3", "0.6", 13, ("win_prob", "net_benefit", "phi", "net_benefit_third"))
    yield "sweep_turnout_r", _sweep(
        "turnout", "r", "0.4", "0.7", 7, ("win_prob", "r_T", "net_benefit_turnout"))
    # mu across 1/2, where the win map starts to saturate.
    mu = ("diverged", "mu", "0.3", "0.8", 11, ("win_prob", "net_benefit", "r_bind", "r_star_star"))
    yield "sweep_mu", _sweep(*mu)
    yield "sweep_mu_threads2", _sweep(*mu, "--threads", "2")
    # The spoiler race's mu axis, where its win map starts to saturate.
    yield "sweep_spoiler_mu", _sweep("spoiler", "mu", "0.3", "0.9", 13, ("net_benefit_third",))
    yield "sweep_taste_scale", _sweep("diverged", "taste_scale", "0.1", "0.5", 9, wl.SWEEP_QUANTITIES)
    # v across 0, where the spoiler block stops being valid.
    yield "sweep_spoiler_v", _sweep(
        "spoiler", "v", "-0.5", "0.5", 5, ("phi", "net_benefit_third"))
    # p up to where r_bind's kernels underflow: the first failing point is
    # the second worker's first.
    underflow = ("underflow", "p", "0.5", "3.0", 6, ("win_prob", "r_bind"))
    yield "sweep_underflow_p", _sweep(*underflow)
    yield "sweep_underflow_p_threads2", _sweep(*underflow, "--threads", "2")
    # The shock axis, the grid path that fig1 and fig2 take.
    yield "sweep_gamma", _sweep("diverged", "gamma", "-1", "1", 21, ("s", "g"))
    yield from ((f"figure_{name}", ["figure", name]) for name in ("fig1", "fig2", "fig3", "figg"))
    for name in SCENARIOS:
        for engine in ("counts", "agents"):
            argv = ["validate", f"{name}_{engine}.json", "--seed"]
            yield f"validate_{name}_{engine}", [*argv, SEED]
            yield f"validate_{name}_{engine}_seed{SECOND_SEED}", [*argv, SECOND_SEED]


COMMANDS = dict(_commands())


def snapshot(outdir: Path, src: Path) -> int:
    """Write the scenarios and every command's streams; return the number of
    commands that did not exit as expected plus the number of NAME_threads2
    streams that differ from NAME's."""
    outdir.mkdir(parents=True, exist_ok=True)
    for name, spec in {**SCENARIOS, **EVALUATED}.items():
        (outdir / f"{name}.json").write_text(json.dumps(spec))
    for name, spec in SCENARIOS.items():
        for engine, sim in (("counts", COUNTS), ("agents", AGENTS)):
            (outdir / f"{name}_{engine}.json").write_text(json.dumps({**spec, "sim": sim}))
    env = {**os.environ, "PYTHONPATH": str(src)}
    failed = 0
    for name, argv in COMMANDS.items():
        done = subprocess.run(
            [sys.executable, "-m", "refcalc.cli", *argv, "--out", f"{name}.csv"],
            cwd=outdir, env=env, capture_output=True,
        )
        (outdir / f"{name}.stdout").write_bytes(done.stdout)
        (outdir / f"{name}.stderr").write_bytes(done.stderr)
        (outdir / f"{name}.exit").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}")
        failed += done.returncode != EXPECTED_EXIT.get(name, 0)
    for name in COMMANDS:
        twin = name.removesuffix("_threads2")
        if twin != name:
            for ext in ("csv", "stdout", "stderr", "exit"):
                if (outdir / f"{name}.{ext}").read_bytes() != (outdir / f"{twin}.{ext}").read_bytes():
                    print(f"{name}.{ext} differs from {twin}.{ext}")
                    failed += 1
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--root", type=Path, default=HERE,
                        help="checkout whose src/refcalc runs (default: this one)")
    args = parser.parse_args(argv)
    failed = snapshot(args.outdir, args.root.resolve() / "src")
    # The snapshot is written either way.
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
