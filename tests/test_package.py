"""The package root re-exports every module's public names exactly once."""
from __future__ import annotations

import hashlib
import inspect

import edgemagic
from edgemagic import decomp, errors, graphs, intervals, labelings, products, search


def test_every_public_name_resolves_from_the_root():
    for module in (errors, graphs, labelings, intervals, search, products, decomp):
        for name in module.__all__:
            assert getattr(edgemagic, name) is getattr(module, name), (module.__name__, name)


def test_root_names_are_listed_once():
    assert len(edgemagic.__all__) == len(set(edgemagic.__all__))
    assert all(hasattr(edgemagic, name) for name in edgemagic.__all__)


# Every public name, frozen: a change of the public surface shows here.
PUBLIC_NAMES = [
    "ArcAssignment", "Bipartition", "BudgetExceededError", "CYCLE4_EM_LABELINGS",
    "DEFAULT_CAP", "Decomposition", "Digraph", "EdgeMagicError", "Graph",
    "InducedProductLabeling", "IntervalReport", "InvalidLabelingError", "LabeledDigraph",
    "ObstructionReport", "ParseError", "S2nGraph", "SpectrumReport", "TotalLabeling",
    "__version__", "bipartition", "build_s2n", "check_bipartition", "check_decomposition",
    "check_total_labeling", "check_vertex_labeling", "complement",
    "crown_iso_from_cycle_product", "crown_iso_from_star_product", "edges_match_under",
    "em_factor_key", "em_interval", "em_spectrum", "enumerate_2_decompositions",
    "extend_vertex_labeling", "first_em_labeling", "first_sem_labeling", "format_digraph",
    "format_graph", "format_labeling", "induced_labeling_from_em_factors",
    "induced_labeling_from_sem_factors", "induced_s2n_labeling", "induced_sums",
    "is_super_edge_magic", "mk_complete_bipartite",
    "mk_crown", "mk_cycle", "mk_star_with_loop", "normalize_by_labels", "obstruction_report",
    "orient_cycle", "orient_for_decomposition", "parse_digraph", "parse_graph",
    "parse_labeling", "predicted_valences", "s2n_iso_map", "sem_factor_key", "sem_interval",
    "sem_spectrum", "star_loop_labeling", "star_product_valences", "tensor_product",
    "transport", "trivial_valence_bounds", "valence_count_floor", "valence_of",
    "verify_s2n_iso",
]


def test_public_names_are_frozen():
    assert len(PUBLIC_NAMES) == 68
    assert sorted(edgemagic.__all__) == PUBLIC_NAMES


def _signatures() -> str:
    """One line per public callable, classes included: its parameters'
    names, kinds and default reprs, without annotations, so that every
    supported Python prints the same; a class whose constructor has no
    Python signature (an exception that keeps Exception's) reads None."""
    lines = []
    for name in sorted(edgemagic.__all__):
        obj = getattr(edgemagic, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:
            lines.append(f"{name} None")
            continue
        shown = [
            (p.name, p.kind.name, None if p.default is p.empty else repr(p.default))
            for p in params
        ]
        lines.append(f"{name} {shown}")
    return "\n".join(lines)


# sha256 of _signatures(): a new, removed or renamed parameter, a changed
# kind or a changed default shows here.
PUBLIC_SIGNATURES_SHA256 = "d16a97953346088944d02ac021183bc582e43d08e57187e5026a5e1d44bc7229"


def test_public_signatures_are_frozen():
    current = _signatures()
    digest = hashlib.sha256(current.encode()).hexdigest()
    assert digest == PUBLIC_SIGNATURES_SHA256, f"public signatures now read:\n{current}"

