"""Numerical tolerances, centralized and overridable.

The environment variable ``VRECOVER_TOL_OVERRIDES`` may hold a JSON object
whose keys are field names of :class:`Tolerances`, so experiments can
corrupt a single knob (for example ``{"rank_rel_tol": 1.0}``) and observe
the self-test fail. :func:`load_tolerances` reads it; only the entry points
call that (each CLI command and campaign once, and ``recover_r*`` or
``run_trial`` when called without a ``Tolerances``). Everything below them
is handed its bounds and never reads the environment.
"""

import dataclasses
import json
import os
import sys

from .errors import InvalidInputError

ENV_VAR = "VRECOVER_TOL_OVERRIDES"


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """The overridable bounds; `structmat._GAP_RATIO`,
    `recover_phaseless._DEGENERACY_TOL` and `recover_phaseless._DISAMBIG_TOL`
    are fixed and are not fields."""

    # relative residual bound certified for every reported polynomial root
    tol_root: float = 1e-8
    # singular values <= rank_rel_tol * sigma_max * max(rows, cols) count as zero;
    # a null space of two or more directions needs them under 1e-4 times that
    rank_rel_tol: float = 1e-8
    # conjugate-reciprocal pairing; the relative defect bound of both
    # square roots, the discriminant's and the |v|^2 block's; and the
    # relative disagreement of the dual split's two cofactor candidates
    pair_tol: float = 1e-6
    # bound on max|residual| / max|y| in every forward check
    forward_tol: float = 1e-6


_FIELD_NAMES = {f.name for f in dataclasses.fields(Tolerances)}


def load_tolerances(overrides: dict | None = None) -> Tolerances:
    """Build the tolerance set from defaults, the env var, then `overrides`."""
    merged: dict[str, float] = {}
    raw = os.environ.get(ENV_VAR)
    if raw:
        try:
            env = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"{ENV_VAR} is not valid JSON: {exc}") from exc
        if not isinstance(env, dict):
            raise InvalidInputError(f"{ENV_VAR} must hold a JSON object")
        merged.update(env)
    if overrides:
        merged.update(overrides)
    unknown = set(merged) - _FIELD_NAMES
    if unknown:
        raise InvalidInputError(f"unknown tolerance names: {sorted(unknown)}")
    for key, val in merged.items():
        # NaN fails both comparisons; an int too large for a float fails the second
        if (not isinstance(val, (int, float)) or isinstance(val, bool)
                or not 0 < val <= sys.float_info.max):
            raise InvalidInputError(f"tolerance {key} must be a positive finite number")
    return Tolerances(**{k: float(v) for k, v in merged.items()})
