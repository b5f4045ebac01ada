import sys

import pytest

from ddcp import deciders, endalg


@pytest.fixture(autouse=True)
def fresh_decider_memo():
    """Each test starts with none of the deciders' shared work, so a test
    that counts calls or monkeypatches a layer sees every build."""
    deciders._memo.cache_clear()


@pytest.fixture
def end_of_calls(monkeypatch):
    """The objects end_of is called on, in call order, from every module of
    the package that imported it."""
    calls = []
    end_of = endalg.end_of

    def counted(x):
        calls.append(x)
        return end_of(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("ddcp") and getattr(module, "end_of", None) is end_of:
            monkeypatch.setattr(module, "end_of", counted)
    return calls
