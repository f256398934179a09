"""The benchmark's workloads: set-up, one timed pass and its correctness check.

Every workload uses the near-critical two-layer data of the paper:
d = 1, p0 = -1, c = 1, g = 0.9643897689026288, gamma = 3 on [-1, -1/2]
and 0 above.  The checks and their tolerances are listed in README.md;
`check` returns one message per violated condition, so an empty list is a
correct pass.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from steadywaves import cli
from steadywaves import weakform as wf
from steadywaves.field import random_admissible_field
from steadywaves.vorticity import FlowParameters, two_layer

G_CRITICAL = 0.9643897689026288
AMPLITUDES = (0.0, 2.5e-4, 5e-4, 1e-3)
SOLVER_TOL = 1e-10

# -- tolerances of the correctness gate ---------------------------------------
RESIDUAL_MAX = 1e-10     # converged residual_inf, the solver tolerance
Q_ATOL = 1e-8            # Bernoulli head against the reference
AMPLITUDE_ATOL = 1e-10   # amplitude row is solved to the solver tolerance
PAIRING_TOL = 1e-4       # verify's PASS threshold (config default)
MAXIMA_RTOL = 1e-6       # verify maxima against the references ...
MAXIMA_ATOL = 1e-10      # ... plus the solver tolerance as an absolute floor
SURFACE_GAP_MAX = 1e-13  # algebraic surface identity is pure round-off
COLLAPSE_MAX = 1e-12     # Bernoulli streamline collapse, criterion 7
CROSS_REL_MAX = 1e-6     # cross-identity relative gap at the finest level

# recorded at the commit that introduced the benchmark; 1 and 2 BLAS threads
# give the same bits
Q_REF = {(128, 256): 2.559502616723651, (256, 512): 2.5595050554552867}
VERIFY_MAXIMA_REF = {
    "height": 1.560077907106254e-08,
    "stream": 8.798758227749499e-06,
    "euler_R1": 8.011132366756072e-10,
    "euler_R2": 7.709483546492254e-06,
    "euler_R3": 1.0336041566694834e-09,
}


def flow_parameters():
    return FlowParameters(d=1.0, g=G_CRITICAL, c=1.0, p0=-1.0, P_atm=0.0)


def config_text(Nq, Np):
    amps = ", ".join(repr(a) for a in AMPLITUDES)
    return f"""\
physics.d = 1.0
physics.g = {G_CRITICAL!r}
physics.c = 1.0
physics.p0 = -1.0
vorticity.piece = -1.0, -0.5, 3.0
vorticity.piece = -0.5, 0.0, 0.0
grid.Nq = {Nq}
grid.Np = {Np}
solver.mode = fixed_amplitude
solver.amplitude_schedule = {amps}
solver.tol = {SOLVER_TOL!r}
verify.pairing_tol = {PAIRING_TOL!r}
verify.levels = 1, 2
verify.eps_list = 0.1, 0.2, 0.4
"""


class PassFailure(RuntimeError):
    """A subcommand of the pass exited with a nonzero code."""


# -- pure checks (the benchmark's test feeds them injected defects) -----------


def check_solve(summary, grid):
    out = []
    res = summary["residual_inf"]
    if not res <= RESIDUAL_MAX:
        out.append(f"residual_inf {res!r} > {RESIDUAL_MAX}")
    dq = abs(summary["Q"] - Q_REF[grid])
    if not dq <= Q_ATOL:
        out.append(f"Q {summary['Q']!r} off reference {Q_REF[grid]!r} "
                   f"by {dq:.3e} > {Q_ATOL}")
    da = abs(summary["amplitude"] - AMPLITUDES[-1])
    if not da <= AMPLITUDE_ATOL:
        out.append(f"amplitude {summary['amplitude']!r} off "
                   f"{AMPLITUDES[-1]} by {da:.3e} > {AMPLITUDE_ATOL}")
    return out


def check_transform(summary):
    err = summary["bernoulli_collapse_err"]
    return [] if err <= COLLAPSE_MAX else [
        f"Bernoulli collapse {err:.3e} > {COLLAPSE_MAX}"]


def check_verify(report):
    out = []
    maxima = {p["formulation"]: p["max_normalized"]
              for p in report["pairings"]}
    if maxima.keys() != VERIFY_MAXIMA_REF.keys():
        out.append(f"verify formulations {sorted(maxima)}")
    for name, ref in VERIFY_MAXIMA_REF.items():
        mx = maxima.get(name, float("nan"))
        if not mx <= PAIRING_TOL:
            out.append(f"verify {name}: {mx!r} > {PAIRING_TOL} (FAIL)")
        if not abs(mx - ref) <= MAXIMA_RTOL * ref + MAXIMA_ATOL:
            out.append(f"verify {name}: maximum {mx!r} off reference {ref!r}")
    gap = report["surface_identity"]["identity_gap_rel"]
    if not gap <= SURFACE_GAP_MAX:
        out.append(f"surface identity gap {gap:.3e} > {SURFACE_GAP_MAX}")
    return out


def check_cross(gaps, rhs_finest):
    """gaps[level][bump], rhs_finest[bump] of one field."""
    out = []
    worst = [max(level) for level in gaps]
    if not all(a > b for a, b in zip(worst, worst[1:])):
        out.append(f"cross-identity gap not decreasing over levels: {worst}")
    rel = max(g / max(1.0, abs(r)) for g, r in zip(gaps[-1], rhs_finest))
    if not rel <= CROSS_REL_MAX:
        out.append(f"cross-identity relative gap {rel:.3e} > {CROSS_REL_MAX}")
    return out


# -- workloads ----------------------------------------------------------------


class CliWorkload:
    """In-process `steadywaves.cli.main` subcommands on a fresh directory."""

    def __init__(self, grid, commands):
        self.grid = grid
        self.commands = commands

    def setup(self, seed, pass_index, pass_dir: Path):
        # the inputs are the paper's fixed data; the seed selects nothing here
        self.dir = pass_dir
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        self.cfg = pass_dir / "run.cfg"
        self.cfg.write_text(config_text(*self.grid), encoding="utf-8")

    def _argv(self, command):
        d, cfg = self.dir, str(self.cfg)
        field = ["--field", str(d / "field.csv")]
        return {
            "solve": ["solve", "--config", cfg, "--out", str(d)],
            "transform": ["transform", "--config", cfg,
                          "--out", str(d / "t")] + field,
            "verify": ["verify", "--config", cfg,
                       "--out", str(d / "v")] + field,
        }[command] + ["--quiet"]

    def run(self, phase):
        for command in self.commands:
            with phase(f"cli.{command}"):
                code = cli.main(self._argv(command))
            if code != 0:
                raise PassFailure(f"{command} exited with code {code}")

    def check(self):
        def load(*parts):
            return json.loads(self.dir.joinpath(*parts).read_text())

        out = check_solve(load("field.json"), self.grid)
        if "transform" in self.commands:
            out += check_transform(load("t", "transform.json"))
        if "verify" in self.commands:
            out += check_verify(load("v", "verify.json"))
        return out

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


CROSS_BUMPS = [((q0, pc), (np.pi / 4, 0.2))
               for pc in (-0.7, -0.45, -0.22)
               for q0 in (-3 * np.pi / 4, -np.pi / 4, np.pi / 4,
                          3 * np.pi / 4)]
CROSS_LEVELS = ((128, 192), (256, 384), (512, 768))


class CrossIdentityWorkload:
    """`weakform.cross_identity` on seeded random admissible fields."""

    def __init__(self, n_fields):
        self.n_fields = n_fields

    def setup(self, seed, pass_index, pass_dir: Path):
        rng = np.random.default_rng([seed, pass_index])
        self.fields = [random_admissible_field(rng)
                       for _ in range(self.n_fields)]
        self.v = two_layer(3.0)
        self.params = flow_parameters()
        self.tfs = [wf.bump(c, r) for c, r in CROSS_BUMPS]

    def run(self, phase):
        with phase("cross_identity_sweep"):
            self.results = [
                [[wf.cross_identity(f, self.v, self.params, tf, nq=nq, npp=npp)
                  for tf in self.tfs] for nq, npp in CROSS_LEVELS]
                for f in self.fields]

    def check(self):
        out = []
        for i, levels in enumerate(self.results):
            gaps = [[gap for _, _, gap in level] for level in levels]
            rhs = [r for _, r, _ in levels[-1]]
            out += [f"field {i}: {msg}" for msg in check_cross(gaps, rhs)]
        return out

    def cleanup(self):
        pass


WORKLOADS = {
    "pipeline-128x256": lambda: CliWorkload(
        (128, 256), ("solve", "transform", "verify")),
    "solve-256x512": lambda: CliWorkload((256, 512), ("solve",)),
    "cross-identity-synthetic": lambda: CrossIdentityWorkload(n_fields=4),
}
