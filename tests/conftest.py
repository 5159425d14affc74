import contextlib
import signal

import numpy as np
import pytest

from diskflow import catalog


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
