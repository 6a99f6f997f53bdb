"""The tolerance set: every knob takes effect."""

import dataclasses
import re
from pathlib import Path

import vrecover
from vrecover.config import Tolerances

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
