"""The package root re-exports every module's public names exactly once."""
from __future__ import annotations

import edgemagic
from edgemagic import decomp, errors, graphs, intervals, labelings, products, search


def test_every_public_name_resolves_from_the_root():
    for module in (errors, graphs, labelings, intervals, search, products, decomp):
        for name in module.__all__:
            assert getattr(edgemagic, name) is getattr(module, name), (module.__name__, name)


def test_root_names_are_listed_once():
    assert len(edgemagic.__all__) == len(set(edgemagic.__all__))
    assert all(hasattr(edgemagic, name) for name in edgemagic.__all__)
