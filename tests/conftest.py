import sys

import pytest

from ddcp import approx, deciders, derived, endalg

# the cached functions themselves, which a test may monkeypatch away
CACHES = (
    endalg._end_of_pattern,
    approx._target_reach,
    deciders._memo,
    derived._chain_cone,
)


def reset_caches():
    """Forget every End cached by Hom pattern, the approximation target's
    Hom relation, the deciders' shared work and every cone cached by
    morphism value."""
    for cached in CACHES:
        cached.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with reset caches, so a test that counts builds or
    monkeypatches a layer sees every build.  Returns reset_caches, for a
    test that needs fresh caches again."""
    reset_caches()
    return reset_caches


@pytest.fixture
def end_of_calls(monkeypatch):
    """The objects End was asked about, one entry per call of end_of, in
    order, through every module of the package that imported it.  A call
    need not construct an SCAlgebra: objects with the same Hom pattern
    share one."""
    calls = []
    end_of = endalg.end_of

    def counted(x):
        calls.append(x)
        return end_of(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("ddcp") and getattr(module, "end_of", None) is end_of:
            monkeypatch.setattr(module, "end_of", counted)
    return calls
