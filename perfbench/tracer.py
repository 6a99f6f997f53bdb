"""Per-module spans and counts, recorded by wrapping vrecover's public functions.

The library binds names at import (``from .structmat import null_space``), so
one function can be reachable under several module globals. ``Tracer.installed``
replaces every such binding in every loaded ``vrecover`` module and restores
the originals on exit; a binding that was missed would drop calls silently.

A timed function gets a span (name, start, end, parent span, trial). Its self
time is its duration minus the durations of the timed calls it made. A counted
function only has its calls counted: ``poly_eval`` runs thousands of times per
candidate set, and a timing wrapper would cost more than the call, so its
time stays in its caller's self time.
"""

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

TIMED = {
    "harness": ("generate_trial", "run_trial"),
    "oracle": ("forward_phase", "forward_phaseless"),
    "structmat": (
        "build_A", "build_B", "build_G", "build_Gtilde", "null_space",
        "refine_null_vector", "vandermonde",
    ),
    "cpoly": ("poly_roots", "pair_conjugate_reciprocal", "laurent_sqrt"),
    "recover_phase": ("recover_r1", "recover_g"),
    "recover_phaseless": (
        "recover_r5", "enumerate_candidates_harmonic", "split_and_enumerate_general",
        "disambiguate", "magnitudes_harmonic", "magnitudes_general",
    ),
}
COUNTED = {
    "cpoly": ("poly_eval", "t_polynomial"),
    "config": ("load_tolerances",),
}
# functions whose result length is summed into a count of the same name
RESULT_LENGTHS = {"recover_phaseless.enumerate_candidates_harmonic"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.result_len: Counter = Counter()
        self.trial = -1
        self.last_error: tuple[str, str] | None = None
        self._last_exc = None
        self._stack: list = []

    def begin_trial(self, trial: int):
        self.trial = trial
        self.last_error = None
        self._last_exc = None

    def _timed(self, name: str, module: str, fn):
        spans, stack, self_s, calls = self.spans, self._stack, self.self_s, self.calls
        keep_len = name in RESULT_LENGTHS
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # the innermost wrapped function an error escapes from names
                # the module it is charged to
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.last_error = (module, type(exc).__name__)
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                spans[frame[0]] = (name, start, end, parent, self.trial)
            if keep_len:
                self.result_len[name] += len(result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every vrecover module binding of the traced functions."""
        wrappers = {}
        for table, timed in ((TIMED, True), (COUNTED, False)):
            for module, names in table.items():
                mod = sys.modules[f"vrecover.{module}"]
                for fname in names:
                    fn = getattr(mod, fname)
                    name = f"{module}.{fname}"
                    wrappers[id(fn)] = (
                        fn,
                        self._timed(name, module, fn) if timed else self._counted(name, fn),
                    )
        patched = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "vrecover" or key.startswith("vrecover."))
        ]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def write_spans(self, path: str, origin: float):
        """One JSON array per line: name, start_s, end_s, parent index, trial."""
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, trial]))
                fh.write("\n")
