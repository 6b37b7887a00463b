"""Every exported name resolves: a dangling entry in an __all__ fails here."""

import importlib
import pkgutil

import pytest

import dirtail

MODULES = ["dirtail"] + [f"dirtail.{m.name}" for m in pkgutil.iter_modules(dirtail.__path__)]

#: the per-regime builders and the regime classifier that tail_asymptotic replaced
REMOVED = ["tail_gumbel_pgt1", "tail_gumbel_peq1", "tail_gumbel_plt1", "tail_weibull",
           "regime_classify"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


@pytest.mark.parametrize("name", ["dirtail", "dirtail.aggtail"])
def test_removed_builders_are_gone(name):
    module = importlib.import_module(name)
    assert [n for n in REMOVED if hasattr(module, n) or n in module.__all__] == []
