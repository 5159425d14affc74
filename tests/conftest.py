import contextlib
import math
import signal

import numpy as np
import pytest

from diskflow import catalog
from diskflow.errors import EvaluationError


@pytest.fixture(scope="session")
def builtins():
    return {name: catalog.builtin_semigroup(name)
            for name in catalog.BUILTIN_NAMES}


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def disk_points(rng, n, r_hi=0.8, r_lo=0.0):
    r = np.sqrt(rng.uniform(r_lo ** 2, r_hi ** 2, size=n))
    th = rng.uniform(-np.pi, np.pi, size=n)
    return [complex(a * np.cos(b), a * np.sin(b)) for a, b in zip(r, th)]


def each_time(fn):
    """The array sampler of ``lipschitz_quotient`` from a scalar reference
    ``fn``: t -> complex, or None for a skipped sample (NaN), called once per
    time in array order."""
    def sample(ts):
        return np.array([complex(math.nan, math.nan) if (v := fn(t)) is None
                         else v for t in ts.tolist()], dtype=complex)
    return sample


def scalar_orbit(sg, z):
    """The scalar reference of a certificate's orbit sampler: t ->
    phi_t(z) by the pullback step from h(z), None where it raises
    EvaluationError."""
    w0 = sg.koenigs_image(z)

    def step(t):
        try:
            return sg.phi_from_image(t, w0)
        except EvaluationError:
            return None
    return step


@contextlib.contextmanager
def deadline(seconds):
    """Fail the running test if the block takes longer than ``seconds``
    (SIGALRM; main thread on POSIX only).  pytest.fail raises an outcome
    exception outside ``Exception``, so no handler in the package can
    swallow it."""
    def expired(signum, frame):
        pytest.fail(f"did not finish within {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
