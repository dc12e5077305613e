"""Declarative verdict specs: the whole scheme zoo on the engine fast path.

Every randomized scheme in this repository reduces to one of three verdict
kernels the engine already vectorizes (:mod:`repro.engine.kernels`,
:mod:`repro.substrates.gf`):

- **fingerprint** — polynomial-identity fingerprints over ``GF(p)``
  (Lemma A.1): the Theorem 3.1 compiler and everything built on it,
  executed by the batched Horner kernel;
- **parity** — packed-``uint64`` GF(2) inner products: the Section 6
  shared-coins compiler, executed by the popcount-parity kernel (public
  coins, so ``randomness="shared"``);
- **threshold** — ``t``-fold repetition of a one-sided fingerprint base
  (footnote 1 boosting): accept iff every repetition accepts.

A :class:`VerdictSpec` names a scheme as *(sized builder, kernel family,
matrix sizes)*.  The builder is one module-level ``build(**sizes) ->
(scheme, configuration)`` that makes both the scheme and its legal
workload; the family documents which kernel the scheme's hooks feed.  This
module is the one place each scheme and its workload are built: the
differential identity matrix (``tests/test_verdict_specs.py``), the
cross-mode consistency suite, the benchmark smoke harness and the campaign
workloads (:data:`repro.parallel.factories.WORKLOADS`, derived from this
registry) all call the same builders — the tests at the spec's small
``matrix_sizes``, campaigns at the builder's defaults or any caller-chosen
size.  A scheme missing from the registry (or drifting from its legacy
oracle) fails tier-1 by construction.

The registry never *replaces* the legacy oracle: ``verify_randomized`` /
``estimate_acceptance`` stay the unoptimized reference, and every spec's
engine decisions are pinned to it per trial.

Typical use::

    from repro.engine.specs import get_spec, scheme_for, spec_plan

    spec = get_spec("biconnectivity")
    plan = spec_plan("biconnectivity", configuration, rng_mode="vector")
    estimate = estimate_acceptance_fast(plan, 10_000)

and a workload at a chosen size:

>>> scheme, configuration = get_spec("boosting").build(node_count=12, t=2)
>>> scheme.name, len(configuration.graph.nodes)
('boosted(compiled(spanning-tree-pls), t=2)', 12)

Unknown names raise :class:`UnknownSchemeError` — the explicit fallback.
There is deliberately no silent degradation: a caller asking for an
unregistered scheme must either register a spec or route through the
legacy oracle on purpose.

Scheme instances are memoized per spec and seed (:func:`scheme_for`),
which is what makes :class:`~repro.engine.cache.PlanCache` keying work on
*spec identity*: the cache keys schemes by ``id()``, so two resolutions of
the same spec share one scheme object and hit, while distinct specs (even
over the same base parser) never alias.  The seed is part of the key
because two builders thread a planted witness into the scheme
(``hamiltonicity``, ``cycle-length``): their scheme only proves the
configuration built at the same seed.

Builders take only primitive arguments, so every one is picklable by
reference and deterministic — the contract :mod:`repro.parallel.spec`
requires of anything a worker process rebuilds.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Tuple

from repro.core.boosting import BoostedRPLS
from repro.core.compiler import FingerprintCompiledRPLS
from repro.core.scheme import RandomizedScheme, engine_hooks_available
from repro.core.shared import SharedCoinsCompiledRPLS
from repro.engine.plan import VerificationPlan, compile_fast_plan

FAMILIES = ("fingerprint", "parity", "threshold")

#: randomness mode each kernel family runs under (parity = public coins).
FAMILY_RANDOMNESS = {
    "fingerprint": "edge",
    "parity": "shared",
    "threshold": "edge",
}


class UnknownSchemeError(KeyError):
    """An unregistered scheme name — the explicit no-silent-fallback error."""


@dataclass(frozen=True, eq=False)
class VerdictSpec:
    """One scheme as (sized builder, kernel family, matrix sizes).

    ``build`` is a module-level ``build(**sizes) -> (scheme,
    configuration)``: the scheme and a *clean* configuration (predicate
    holds; the prover's labels are honest), fully determined by its keyword
    sizes, ``seed`` among them.  Its defaults are the campaign-sized
    workload; ``matrix_sizes`` overrides the few sizes the differential
    matrix shrinks.  ``fault(clean, sizes)`` builds a *violating*
    configuration over the clean one's node set, so honest labels can be
    replayed against it (the classic stale-state workload); ``sizes`` is
    every keyword the builder received.
    """

    name: str
    family: str
    build: Callable[..., Tuple[RandomizedScheme, object]]
    fault: Callable[[object, Dict[str, int]], object]
    matrix_sizes: Mapping[str, int] = field(default_factory=dict)
    note: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r} (choose from {FAMILIES})"
            )
        try:
            self.sizes(seed=0)
        except TypeError as exc:
            raise ValueError(
                f"spec {self.name!r}: matrix_sizes do not fit "
                f"{self.build.__name__}: {exc}"
            ) from None

    @property
    def randomness(self) -> str:
        """The randomness mode this spec's scheme verifies under."""
        return FAMILY_RANDOMNESS[self.family]

    def sizes(self, seed: int) -> Dict[str, int]:
        """Every keyword the builder receives for the matrix workload."""
        bound = inspect.signature(self.build).bind(**self.matrix_sizes, seed=seed)
        bound.apply_defaults()
        return dict(bound.arguments)


def build_scheme(spec: VerdictSpec, seed: int = 0) -> RandomizedScheme:
    """A fresh scheme from the spec's builder at matrix sizes and ``seed``.

    The result always carries engine hooks — asserted here, so a wrapper
    losing its hooks fails at build time, not as a silent generic-path
    fallback.
    """
    scheme = spec.build(**spec.sizes(seed))[0]
    if not engine_hooks_available(scheme):
        raise RuntimeError(
            f"spec {spec.name!r} built a scheme without engine hooks"
        )
    return scheme


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, VerdictSpec] = {}
_SCHEME_MEMO: Dict[Tuple[str, int], RandomizedScheme] = {}
_LOCK = threading.Lock()


def register(spec: VerdictSpec) -> VerdictSpec:
    """Add a spec to the registry; duplicate names are an error."""
    with _LOCK:
        if spec.name in _REGISTRY:
            raise ValueError(f"verdict spec {spec.name!r} already registered")
        _REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> VerdictSpec:
    """The registered spec, or :class:`UnknownSchemeError` — never a guess."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSchemeError(
            f"no verdict spec registered for {name!r} "
            f"(choose from {sorted(_REGISTRY)}); register a VerdictSpec or "
            "use the legacy estimate_acceptance oracle explicitly"
        ) from None


def spec_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def iter_specs() -> Iterator[VerdictSpec]:
    """Specs in name order — the iteration order every generated matrix uses."""
    for name in spec_names():
        yield _REGISTRY[name]


def scheme_for(spec: VerdictSpec, seed: int = 0) -> RandomizedScheme:
    """The memoized scheme of a registered spec's matrix workload at ``seed``.

    One instance per (spec name, seed), process-wide: schemes are stateless
    after construction, and a stable identity is what lets
    :class:`~repro.engine.cache.PlanCache` (which keys schemes by ``id()``)
    key plans on spec identity.  Pair it with
    :func:`clean_configuration` at the same seed.
    """
    key = (spec.name, seed)
    with _LOCK:
        scheme = _SCHEME_MEMO.get(key)
        if scheme is None:
            scheme = _SCHEME_MEMO[key] = build_scheme(spec, seed)
        return scheme


def clean_configuration(spec: VerdictSpec, seed: int = 0):
    """The spec's legal matrix workload (predicate holds)."""
    return spec.build(**spec.sizes(seed))[1]


def fault_configuration(spec: VerdictSpec, seed: int = 0):
    """The spec's violating matrix workload over the same node set."""
    return spec.fault(clean_configuration(spec, seed), spec.sizes(seed))


def spec_plan(
    name: str,
    configuration=None,
    labels=None,
    rng_mode: str = "compat",
    seed: int = 0,
    cache=None,
) -> VerificationPlan:
    """Compile a guaranteed-fast-path plan for a registered scheme.

    ``configuration=None`` uses the spec's clean matrix workload at
    ``seed`` (the scheme is always the one built at ``seed``).  Pass a
    :class:`~repro.engine.cache.PlanCache` as ``cache`` to resolve through
    it (keyed on the memoized scheme instance, i.e. on spec identity).
    Unknown names raise :class:`UnknownSchemeError`.
    """
    spec = get_spec(name)
    scheme = scheme_for(spec, seed)
    if configuration is None:
        configuration = clean_configuration(spec, seed)
    if cache is not None:
        return cache.get(
            scheme,
            configuration,
            labels=labels,
            randomness=spec.randomness,
            rng_mode=rng_mode,
        )
    return compile_fast_plan(
        scheme,
        configuration,
        labels=labels,
        randomness=spec.randomness,
        rng_mode=rng_mode,
    )


# ---------------------------------------------------------------------------
# sized builders (module-level: picklable, deterministic, primitive args)
# ---------------------------------------------------------------------------
#
# Scheme imports stay inside the builders: repro.schemes modules lazily
# import repro.engine for their *_engine_plan helpers, so module-level
# imports here would tie the packages into a cycle.


def build_spanning_tree(node_count: int = 60, extra_edges: int = 15, seed: int = 1):
    """The Theorem 3.1 fingerprint compiler on a random spanning tree."""
    from repro.graphs.generators import spanning_tree_configuration
    from repro.schemes.spanning_tree import SpanningTreePLS

    scheme = FingerprintCompiledRPLS(SpanningTreePLS())
    return scheme, spanning_tree_configuration(node_count, extra_edges, seed=seed)


def build_boosting(
    node_count: int = 60, extra_edges: int = 15, seed: int = 1, t: int = 3
):
    """The footnote-1 boosted compiler (soundness error ``3**-t``)."""
    from repro.graphs.generators import spanning_tree_configuration
    from repro.schemes.spanning_tree import SpanningTreePLS

    scheme = BoostedRPLS(FingerprintCompiledRPLS(SpanningTreePLS()), t)
    return scheme, spanning_tree_configuration(node_count, extra_edges, seed=seed)


def build_shared_coins(node_count: int = 60, extra_edges: int = 15, seed: int = 1):
    """The Section 6 shared-coins compiler (public coins; parity kernel)."""
    from repro.graphs.generators import spanning_tree_configuration
    from repro.schemes.spanning_tree import SpanningTreePLS

    scheme = SharedCoinsCompiledRPLS(SpanningTreePLS())
    return scheme, spanning_tree_configuration(node_count, extra_edges, seed=seed)


def build_uniformity(node_count: int = 10, payload_bits: int = 24, seed: int = 2):
    """The Lemma C.3 direct Unif scheme on equal payloads (label-free)."""
    from repro.graphs.generators import uniform_configuration
    from repro.schemes.uniformity import DirectUnifRPLS

    return DirectUnifRPLS(), uniform_configuration(
        node_count, payload_bits, equal=True, seed=seed
    )


def build_mst(node_count: int = 48, seed: int = 1):
    """The Borůvka-trace MST scheme — the largest-label workload."""
    from repro.graphs.generators import mst_configuration
    from repro.schemes.mst import mst_rpls

    return mst_rpls(), mst_configuration(node_count, seed=seed)


def build_flow(k: int = 2, path_length: int = 4, decoy_edges: int = 3, seed: int = 3):
    """The k-flow certification scheme on a planted flow network."""
    from repro.graphs.generators import flow_configuration
    from repro.schemes.flow import k_flow_rpls

    return k_flow_rpls(), flow_configuration(
        k, path_length=path_length, decoy_edges=decoy_edges, seed=seed
    )


def build_distance(node_count: int = 32, extra_edges: int = 10, seed: int = 4):
    """Weighted single-source distance certification."""
    from repro.graphs.workloads import distance_configuration
    from repro.schemes.distance import distance_rpls

    return distance_rpls(weighted=True), distance_configuration(
        node_count, extra_edges, seed=seed, weighted=True
    )


def build_acyclicity(node_count: int = 40, seed: int = 2):
    """The [31] root-distance forest scheme on a random tree."""
    from repro.graphs.generators import tree_only_configuration
    from repro.schemes.acyclicity import AcyclicityPLS

    return (
        FingerprintCompiledRPLS(AcyclicityPLS()),
        tree_only_configuration(node_count, seed=seed),
    )


def build_biconnectivity(node_count: int = 36, seed: int = 2):
    """The Theorem 5.2 DFS/lowpoint scheme on a random biconnected graph."""
    from repro.graphs.generators import random_biconnected_configuration
    from repro.schemes.biconnectivity import BiconnectivityPLS

    return (
        FingerprintCompiledRPLS(BiconnectivityPLS()),
        random_biconnected_configuration(node_count, seed=seed),
    )


def build_bipartiteness(
    left: int = 18, right: int = 18, extra_edges: int = 8, seed: int = 2
):
    """The planted 2-coloring witness under public coins (parity kernel)."""
    from repro.graphs.workloads import random_bipartite_configuration
    from repro.schemes.bipartiteness import BipartitenessPLS

    return (
        SharedCoinsCompiledRPLS(BipartitenessPLS(), repetitions=2),
        random_bipartite_configuration(left, right, extra_edges=extra_edges, seed=seed),
    )


def build_coloring(node_count: int = 40, colors: int = 4, seed: int = 2):
    """The intro proper-coloring warm-up on a greedily colored graph."""
    from repro.graphs.generators import colored_configuration
    from repro.schemes.coloring import ColoringPLS

    return (
        FingerprintCompiledRPLS(ColoringPLS()),
        colored_configuration(node_count, colors, proper=True, seed=seed),
    )


def build_cycle_length(
    node_count: int = 40, cycle_length: int = 12, c: int = 8, seed: int = 2
):
    """The Theorem 5.3 cycle-at-least-c scheme, witness planted and passed."""
    from repro.graphs.generators import planted_cycle_configuration
    from repro.schemes.cycle_length import CycleAtLeastPLS

    configuration, witness = planted_cycle_configuration(
        node_count, cycle_length, seed=seed
    )
    return FingerprintCompiledRPLS(CycleAtLeastPLS(c, witness=witness)), configuration


def build_eulerian(node_count: int = 30, seed: int = 2):
    """Zero-bit labels (kappa=0): the compiler's smallest-label workload."""
    from repro.graphs.workloads import eulerian_configuration
    from repro.schemes.eulerian import EulerianPLS

    return (
        FingerprintCompiledRPLS(EulerianPLS()),
        eulerian_configuration(node_count, seed=seed),
    )


def build_hamiltonicity(
    node_count: int = 24, extra_edges: int = 10, seed: int = 2, t: int = 2
):
    """Cycle-at-least-n boosted t-fold, witness planted and passed."""
    from repro.graphs.workloads import hamiltonian_configuration
    from repro.schemes.hamiltonicity import HamiltonicityPLS

    configuration, order = hamiltonian_configuration(
        node_count, extra_edges, seed=seed
    )
    scheme = BoostedRPLS(
        FingerprintCompiledRPLS(HamiltonicityPLS(witness=order)), t
    )
    return scheme, configuration


def build_leader(node_count: int = 36, extra_edges: int = 10, seed: int = 2):
    """Leader agreement via compiled id republication."""
    from repro.graphs.workloads import leader_configuration
    from repro.schemes.leader import leader_rpls

    return leader_rpls(), leader_configuration(node_count, extra_edges, seed=seed)


def build_mis(node_count: int = 36, extra_edges: int = 10, seed: int = 2):
    """1-bit MIS labels under the GF(2) parity kernel (public coins)."""
    from repro.graphs.workloads import mis_configuration
    from repro.schemes.mis import MISPLS

    return (
        SharedCoinsCompiledRPLS(MISPLS(), repetitions=2),
        mis_configuration(node_count, extra_edges, seed=seed),
    )


def _symmetry_pair(lam: int, seed: int, equal: bool):
    """``G(x, y)`` of Figure 4 with a seeded ``x`` and ``y = x`` or one bit off."""
    import random

    from repro.core.bitstrings import BitString
    from repro.graphs.generators import sym_pair_configuration

    rng = random.Random(seed)
    x = BitString(rng.getrandbits(lam), lam)
    y = x if equal else BitString(x.value ^ (1 << rng.randrange(lam)), lam)
    configuration, _cut, _alice, _bob = sym_pair_configuration(x, y)
    return configuration


def build_symmetry(lam: int = 6, seed: int = 2):
    """Corollary 3.4's universal scheme on the Figure 4 Sym gadget (x == y)."""
    from repro.schemes.symmetry import sym_universal_rpls

    return sym_universal_rpls(), _symmetry_pair(lam, seed, equal=True)


def build_vertex_connectivity(
    path_count: int = 3, path_length: int = 3, decoy_edges: int = 2,
    seed: int = 2, t: int = 2,
):
    """s-t vertex connectivity, boosted t-fold."""
    from repro.graphs.generators import vertex_connectivity_configuration
    from repro.schemes.vertex_connectivity import STVertexConnectivityPLS

    scheme = BoostedRPLS(FingerprintCompiledRPLS(STVertexConnectivityPLS()), t)
    return scheme, vertex_connectivity_configuration(
        path_count, path_length=path_length, decoy_edges=decoy_edges, seed=seed
    )


# ---------------------------------------------------------------------------
# fault builders: fault(clean configuration, builder sizes)
# ---------------------------------------------------------------------------


def _spanning_tree_fault(clean, sizes):
    from repro.graphs.generators import corrupt_spanning_tree

    return corrupt_spanning_tree(clean, seed=sizes["seed"] + 1)


def _uniformity_fault(clean, sizes):
    from repro.graphs.generators import uniform_configuration

    return uniform_configuration(
        sizes["node_count"], sizes["payload_bits"], equal=False, seed=sizes["seed"]
    )


def _mst_fault(clean, sizes):
    from repro.graphs.generators import corrupt_mst_swap

    return corrupt_mst_swap(clean, seed=sizes["seed"] + 1)


def _claimed_k_fault(clean, sizes):
    from repro.graphs.generators import corrupt_claimed_k

    return corrupt_claimed_k(clean)


def _distance_fault(clean, sizes):
    from repro.graphs.workloads import corrupt_distance

    return corrupt_distance(clean, seed=sizes["seed"] + 1)


def _acyclicity_fault(clean, sizes):
    from repro.graphs.generators import spanning_tree_configuration

    # Same node set, three chords: every chord closes a cycle.
    return spanning_tree_configuration(sizes["node_count"], 3, seed=sizes["seed"])


def _tree_fault(clean, sizes):
    from repro.graphs.generators import tree_only_configuration

    # A tree on the same nodes: every internal node is a cut vertex, and
    # there is no cycle at all (cycle-at-least-c maximally false).
    return tree_only_configuration(sizes["node_count"], seed=sizes["seed"])


def _bipartiteness_fault(clean, sizes):
    from repro.graphs.workloads import odd_cycle_configuration

    return odd_cycle_configuration(sizes["left"] + sizes["right"], seed=sizes["seed"])


def _coloring_fault(clean, sizes):
    from repro.graphs.generators import colored_configuration

    # Same graph (same seed draws), one planted color conflict.
    return colored_configuration(
        sizes["node_count"], sizes["colors"], proper=False, seed=sizes["seed"]
    )


def _eulerian_fault(clean, sizes):
    from repro.graphs.workloads import non_eulerian_configuration

    return non_eulerian_configuration(sizes["node_count"], seed=sizes["seed"])


def _leader_fault(clean, sizes):
    from repro.graphs.workloads import corrupt_leader_disagreement

    return corrupt_leader_disagreement(clean, seed=sizes["seed"] + 1)


def _mis_fault(clean, sizes):
    from repro.graphs.workloads import corrupt_mis_independence

    return corrupt_mis_independence(clean, seed=sizes["seed"] + 1)


def _symmetry_fault(clean, sizes):
    # G(x, y) with x != y on the same gadget nodes: Sym fails (Claim C.2).
    return _symmetry_pair(sizes["lam"], sizes["seed"], equal=False)


# ---------------------------------------------------------------------------
# the registered zoo
# ---------------------------------------------------------------------------
#
# The seven schemes that had hand-wired engine hooks before the spec layer
# (fingerprint, uniformity, boosting, shared-coins, mst, flow, distance)
# plus the twelve that previously ran the legacy per-trial oracle only.
# tests/test_verdict_specs.py asserts this set exactly — removing an entry
# (or registering one the matrix does not expect) fails tier-1.

_SPANNING_TREE_MATRIX = {"node_count": 14, "extra_edges": 4}

register(VerdictSpec(
    name="fingerprint",
    family="fingerprint",
    build=build_spanning_tree,
    fault=_spanning_tree_fault,
    matrix_sizes=_SPANNING_TREE_MATRIX,
    note="Theorem 3.1 compiler exemplar (spanning-tree base)",
))
register(VerdictSpec(
    name="uniformity",
    family="fingerprint",
    build=build_uniformity,
    fault=_uniformity_fault,
    matrix_sizes={"payload_bits": 16},
    note="Lemma C.3 direct Unif scheme (scalar fingerprint check)",
))
register(VerdictSpec(
    name="boosting",
    family="threshold",
    build=build_boosting,
    fault=_spanning_tree_fault,
    matrix_sizes={**_SPANNING_TREE_MATRIX, "t": 2},
    note="footnote-1 boosting, soundness error 3**-t",
))
register(VerdictSpec(
    name="shared-coins",
    family="parity",
    build=build_shared_coins,
    fault=_spanning_tree_fault,
    matrix_sizes=_SPANNING_TREE_MATRIX,
    note="Section 6 public-coins compiler (GF(2) parity kernel)",
))
register(VerdictSpec(
    name="mst",
    family="fingerprint",
    build=build_mst,
    fault=_mst_fault,
    matrix_sizes={"node_count": 10},
    note="Theorem 5.1 Borůvka-trace scheme",
))
register(VerdictSpec(
    name="flow",
    family="fingerprint",
    build=build_flow,
    fault=_claimed_k_fault,
    matrix_sizes={"path_length": 3, "decoy_edges": 1},
    note="Section 5.2 k-flow certification",
))
register(VerdictSpec(
    name="distance",
    family="fingerprint",
    build=build_distance,
    fault=_distance_fault,
    matrix_sizes={"node_count": 10, "extra_edges": 3},
    note="weighted SSSP distance certification",
))
register(VerdictSpec(
    name="acyclicity",
    family="fingerprint",
    build=build_acyclicity,
    fault=_acyclicity_fault,
    matrix_sizes={"node_count": 12},
    note="root-distance forest certification ([31])",
))
register(VerdictSpec(
    name="biconnectivity",
    family="fingerprint",
    build=build_biconnectivity,
    fault=_tree_fault,
    matrix_sizes={"node_count": 12},
    note="Theorem 5.2 DFS/lowpoint scheme",
))
register(VerdictSpec(
    name="bipartiteness",
    family="parity",
    build=build_bipartiteness,
    fault=_bipartiteness_fault,
    matrix_sizes={"left": 6, "right": 6, "extra_edges": 3},
    note="planted 2-coloring witness under public coins",
))
register(VerdictSpec(
    name="coloring",
    family="fingerprint",
    build=build_coloring,
    fault=_coloring_fault,
    matrix_sizes={"node_count": 12, "colors": 3},
    note="intro warm-up: proper c-coloring",
))
register(VerdictSpec(
    name="cycle-length",
    family="fingerprint",
    build=build_cycle_length,
    fault=_tree_fault,
    matrix_sizes={"node_count": 12, "cycle_length": 6, "c": 4},
    note="Theorem 5.3 cycle-at-least-c witness scheme",
))
register(VerdictSpec(
    name="eulerian",
    family="fingerprint",
    build=build_eulerian,
    fault=_eulerian_fault,
    matrix_sizes={"node_count": 10},
    note="zero-bit labels: the kappa=0 edge case of the compiler",
))
register(VerdictSpec(
    name="hamiltonicity",
    family="threshold",
    build=build_hamiltonicity,
    fault=_tree_fault,
    matrix_sizes={"node_count": 10, "extra_edges": 4},
    note="cycle-at-least-n, boosted t=2",
))
register(VerdictSpec(
    name="leader",
    family="fingerprint",
    build=build_leader,
    fault=_leader_fault,
    matrix_sizes={"node_count": 10, "extra_edges": 3},
    note="leader agreement via compiled id republication",
))
register(VerdictSpec(
    name="mis",
    family="parity",
    build=build_mis,
    fault=_mis_fault,
    matrix_sizes={"node_count": 10, "extra_edges": 3},
    note="1-bit MIS labels under the parity kernel",
))
register(VerdictSpec(
    name="spanning-tree",
    family="fingerprint",
    build=build_spanning_tree,
    fault=_spanning_tree_fault,
    matrix_sizes=_SPANNING_TREE_MATRIX,
    note="the intro Theta(log n) scheme as a first-class zoo entry",
))
register(VerdictSpec(
    name="symmetry",
    family="fingerprint",
    build=build_symmetry,
    fault=_symmetry_fault,
    matrix_sizes={"lam": 3},
    note="Corollary 3.4 universal scheme on the Figure 4 Sym gadget",
))
register(VerdictSpec(
    name="vertex-connectivity",
    family="threshold",
    build=build_vertex_connectivity,
    fault=_claimed_k_fault,
    matrix_sizes={"path_count": 2, "decoy_edges": 1},
    note="s-t vertex connectivity, boosted t=2",
))
