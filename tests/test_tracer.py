"""The bench tracer still finds every entry point it wraps.

``bench/tracer.py`` patches package attributes by name; a rename in the
package makes ``install`` fail here instead of only under a traced bench
run, and a route that bypasses a patched name reads 0 here.  No timing is
taken."""

import sys
from pathlib import Path

from diskflow import analysis, catalog

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer():
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    return Tracer()


def test_install_wraps_and_uninstall_restores():
    tracer = _tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original


def test_certificate_quotients_are_counted():
    tracer = _tracer()
    tracer.install()
    try:
        analysis.forward_certificate(catalog.builtin_semigroup("halfplane"),
                                     0j)
    finally:
        tracer.uninstall()
    assert tracer.counts["analysis.lipschitz_quotient.pairs"] > 0
