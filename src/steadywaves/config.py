"""Run configuration: a flat key-value text format with dotted section keys.

Example::

    physics.d = 1.0
    physics.g = 9.8
    physics.c = 1.0
    physics.p0 = -1.0
    vorticity.piece = -1.0, -0.5, 3.0      # p_lo, p_hi, c0 [, c1, ...]
    vorticity.piece = -0.5, 0.0, 0.0
    grid.Nq = 64
    grid.Np = 64
    solver.mode = fixed_Q                  # or fixed_amplitude
    solver.Q = 20.6
    solver.amplitude_schedule = 0.0, 5e-4, 1e-3
    verify.pairing_tol = 1e-4

`#` starts a comment; `vorticity.piece` is repeatable, everything else is
single-valued.  Unknown keys are rejected.  Every number must be finite
and within its key's bound (`_BOUNDS`), checked as its line is parsed
(`vorticity.piece` by `VorticityFunction`).
`verify` pairs `weakform.default_lattice()`, which no key changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import AlignmentError, aligned_node, mollifier_scales_problem
from .vorticity import VorticityFunction, FlowParameters


class ConfigError(ValueError):
    """Invalid or missing configuration entry."""


_SCALAR_KEYS = {
    "physics.d": float,
    "physics.g": float,
    "physics.c": float,
    "physics.p0": float,
    "physics.P_atm": float,
    "grid.Nq": int,
    "grid.Np": int,
    "solver.mode": str,
    "solver.Q": float,
    "solver.tol": float,
    "solver.max_iter": int,
    "verify.pairing_tol": float,
    "output.dir": str,
}

_LIST_KEYS = {
    "solver.amplitude_schedule": float,
    "verify.levels": int,
    "verify.eps_list": float,
}

# the keys with a bound, which each of their values must exceed (">") or
# reach (">=")
_BOUNDS = {"solver.tol": (">", 0), "verify.pairing_tol": (">", 0),
           "solver.max_iter": (">=", 0), "verify.levels": (">=", 1)}

_REQUIRED = ("physics.d", "physics.g", "physics.c", "physics.p0",
             "grid.Nq", "grid.Np", "solver.mode")


@dataclass
class RunConfig:
    params: FlowParameters
    vorticity: VorticityFunction
    Nq: int
    Np: int
    mode: str
    Q: float | None
    amplitude_schedule: list
    tol: float
    max_iter: int
    pairing_tol: float
    levels: list
    eps_list: list
    output_dir: str
    raw_text: str = ""


def _check_numbers(ln, key, value):
    """Refuse a number of `key` on line `ln` that is not finite, or that is
    beyond the key's bound in `_BOUNDS`."""
    if isinstance(value, str):
        return
    op, bound = _BOUNDS.get(key, (">", -math.inf))
    for x in value if isinstance(value, list) else [value]:
        if not (math.isfinite(x) and (x > bound if op == ">" else x >= bound)):
            rule = "finite" + (f" and {op} {bound}" if key in _BOUNDS else "")
            raise ConfigError(f"line {ln}: {key} must be {rule}, got {x}")


def parse_config(text: str) -> RunConfig:
    values = {}
    pieces = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "vorticity.piece":
            try:
                nums = [float(x) for x in val.split(",")]
            except ValueError:
                raise ConfigError(f"line {ln}: vorticity.piece needs numbers, "
                                  f"got {val!r}")
            if len(nums) < 3:
                raise ConfigError(f"line {ln}: vorticity.piece needs "
                                  "p_lo, p_hi and at least one coefficient")
            pieces.append((nums[0], nums[1], tuple(nums[2:])))
        elif key in _SCALAR_KEYS or key in _LIST_KEYS:
            if key in values:
                raise ConfigError(f"line {ln}: duplicate key {key}")
            try:
                if key in _SCALAR_KEYS:
                    values[key] = _SCALAR_KEYS[key](val)
                else:
                    values[key] = [_LIST_KEYS[key](x) for x in val.split(",")]
            except ValueError:
                raise ConfigError(f"line {ln}: cannot parse {key} from {val!r}")
            _check_numbers(ln, key, values[key])
        else:
            raise ConfigError(f"line {ln}: unknown key {key!r}")

    for req in _REQUIRED:
        if req not in values:
            raise ConfigError(f"missing required field {req}")
    if not pieces:
        raise ConfigError("missing required field vorticity.piece")

    try:
        params = FlowParameters(d=values["physics.d"], g=values["physics.g"],
                                c=values["physics.c"], p0=values["physics.p0"],
                                P_atm=values.get("physics.P_atm", 0.0))
    except ValueError as exc:
        raise ConfigError(f"physics: {exc}")
    try:
        vort = VorticityFunction(pieces=tuple(pieces))
    except ValueError as exc:
        raise ConfigError(f"vorticity.piece: {exc}")

    mode = values["solver.mode"]
    if mode not in ("fixed_Q", "fixed_amplitude"):
        raise ConfigError(f"solver.mode must be fixed_Q or fixed_amplitude, "
                          f"got {mode!r}")
    if mode == "fixed_Q" and "solver.Q" not in values:
        raise ConfigError("solver.mode fixed_Q requires solver.Q")

    Nq, Np = values["grid.Nq"], values["grid.Np"]
    for b in vort.breakpoints:
        try:
            aligned_node(b, Np)
        except AlignmentError as exc:
            raise ConfigError(f"grid.Np = {Np}: {exc}") from None
    levels = values.get("verify.levels", [1, 2])
    if len(set(levels)) < len(levels):
        raise ConfigError(f"verify.levels repeats a level: {levels}")
    eps_list = values.get("verify.eps_list", [])    # empty: no mollifier
    if eps_list and (problem := mollifier_scales_problem(eps_list, Nq, Np)):
        raise ConfigError(f"verify.eps_list: {problem}")

    return RunConfig(
        params=params,
        vorticity=vort,
        Nq=Nq,
        Np=Np,
        mode=mode,
        Q=values.get("solver.Q"),
        amplitude_schedule=values.get("solver.amplitude_schedule", [0.0]),
        tol=values.get("solver.tol", 1e-10),
        max_iter=values.get("solver.max_iter", 50),
        pairing_tol=values.get("verify.pairing_tol", 1e-4),
        levels=levels,
        eps_list=eps_list,
        output_dir=values.get("output.dir", "out"),
        raw_text=text,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
