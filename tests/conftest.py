import sys

import pytest

from ddcp import deciders, endalg

# the cached functions themselves, which a test may monkeypatch away
CACHES = (endalg.end_of, endalg._end_of_pattern, deciders._memo)


def reset_caches():
    """Forget every End cached, by object or by Hom pattern, and the
    deciders' shared work."""
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
    """The objects End was first asked about (misses of end_of's cache by
    value), in order, through every module of the package that imported
    end_of.  A miss need not construct an SCAlgebra: objects with the same
    Hom pattern share one."""
    builds = []
    end_of = endalg.end_of

    def counted(x):
        misses = end_of.cache_info().misses
        algebra = end_of(x)
        if end_of.cache_info().misses > misses:
            builds.append(x)
        return algebra

    for name, module in list(sys.modules.items()):
        if name.startswith("ddcp") and getattr(module, "end_of", None) is end_of:
            monkeypatch.setattr(module, "end_of", counted)
    return builds
