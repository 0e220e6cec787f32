"""Counting wrapper around numpy.linalg, installed only for a traced run.

framekit looks up np.linalg.<fn> at call time, so replacing the attributes
on the numpy.linalg module sees every call it makes without touching the
library. Calls are counted only while `recording` is set, so the
benchmark's own oracle and input generation stay out of the counts.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

FACTORIZATIONS = (
    "svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "cholesky",
    "inv", "solve", "lstsq", "pinv", "det", "slogdet", "matrix_rank",
)
COUNTED = FACTORIZATIONS + ("norm",)


class LinalgTracer:
    """Context manager that counts and times numpy.linalg calls.

    calls           Counter of calls by function name
    factorization_s seconds spent inside the FACTORIZATIONS
    failed          calls that raised
    """

    def __init__(self):
        self.calls = Counter()
        self.factorization_s = 0.0
        self.failed = 0
        self.recording = False
        self._saved = {}

    def __enter__(self) -> "LinalgTracer":
        for name in COUNTED:
            original = getattr(np.linalg, name)
            self._saved[name] = original
            setattr(np.linalg, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._saved.items():
            setattr(np.linalg, name, original)
        self._saved.clear()
        self.recording = False

    def _wrap(self, name, fn):
        is_factorization = name in FACTORIZATIONS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed += 1
                raise
            finally:
                self.calls[name] += 1
                if is_factorization:
                    self.factorization_s += time.perf_counter() - t0

        return traced

    def factorizations(self) -> int:
        return sum(self.calls[name] for name in FACTORIZATIONS)
