"""The tolerance set: every knob takes effect, and only sane values are taken."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import vrecover
from vrecover.cli import main
from vrecover.config import ENV_VAR, Tolerances, load_tolerances
from vrecover.errors import InvalidInputError

SRC = Path(vrecover.__file__).resolve().parent


def test_every_tolerance_field_is_read():
    """Each field is read as ``tol.<field>`` somewhere in the library.

    A field that loses its last reader stays settable, through
    `load_tolerances` and the environment variable, and does nothing.
    """
    text = "\n".join(path.read_text() for path in sorted(SRC.rglob("*.py")))
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"\btol\.{f.name}\b", text)]
    assert unread == []


BAD_VALUES = {
    "0": 0, "0.0": 0.0, "negative": -1e-8, "nan": float("nan"), "inf": float("inf"),
    "-inf": -float("inf"), "True": True, "False": False, "10**400": 10**400,
}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_tolerances_must_be_positive_finite_numbers(value, monkeypatch):
    """Zero, negative, NaN, infinite, bool and out-of-float-range values are
    rejected, from the environment variable and from the overrides alike;
    an inf forward_tol would switch the forward check off."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    message = r"^tolerance forward_tol must be a positive finite number$"
    with pytest.raises(InvalidInputError, match=message):
        load_tolerances({"forward_tol": value})
    monkeypatch.setenv(ENV_VAR, json.dumps({"forward_tol": value}))
    with pytest.raises(InvalidInputError, match=message):
        load_tolerances()


def test_positive_finite_tolerances_are_accepted(monkeypatch):
    monkeypatch.setenv(ENV_VAR, json.dumps({"pair_tol": 1e-300}))
    tol = load_tolerances({"forward_tol": 3, "tol_root": 1e300})
    assert (tol.pair_tol, tol.forward_tol, tol.tol_root) == (1e-300, 3.0, 1e300)
    assert type(tol.forward_tol) is float


@pytest.mark.parametrize("raw, message", [
    ('{"pair_tol": NaN}', "tolerance pair_tol must be a positive finite number"),
    # a removed knob is rejected, not ignored
    ('{"mag_tol": 1e-8}', "unknown tolerance names: ['mag_tol']"),
    ('{"dedup_tol": 1e-8}', "unknown tolerance names: ['dedup_tol']"),
    ('{"gap_ratio": 1e3}', "unknown tolerance names: ['gap_ratio']"),
    ('{"degeneracy_tol": 1e-8}', "unknown tolerance names: ['degeneracy_tol']"),
    ('{"disambig_tol": 1e-4}', "unknown tolerance names: ['disambig_tol']"),
], ids=["nan", "removed", "removed-dedup", "removed-gap", "removed-degeneracy",
        "removed-disambig"])
def test_bad_tolerance_in_the_environment_exits_2(raw, message, monkeypatch, capsys):
    monkeypatch.setenv(ENV_VAR, raw)
    assert main(["selftest"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
