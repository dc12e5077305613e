"""Named, picklable workloads for sharded and campaign runs.

:data:`WORKLOADS` maps the short names the CLI and campaign sweeps use onto
``(builder, randomness)`` pairs.  It is derived from the verdict-spec
registry (:mod:`repro.engine.specs`): every spec's sized builder
``build(**sizes) -> (scheme, configuration)`` appears under the spec's own
name, plus two CLI names that predate the registry (``k-flow`` for the
``flow`` spec, ``boosted-spanning-tree`` for ``boosting``).  The one
workload the registry does not back is :func:`noisy_spanning_tree`, the
two-sided noisy-channel scheme, which has no engine hooks by design.

Every builder is a module-level callable returning ``(scheme,
configuration)`` — the shape :class:`~repro.parallel.spec.PlanSpec`
requires — and is fully determined by its arguments (explicit seeds
everywhere), so the same spec rebuilds a decision-identical workload in
every worker process.  The randomness is the mode the scheme actually runs
under (the shared-coins compiler needs public coins; everything else runs
under edge randomness).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.engine.specs import VerdictSpec, get_spec, iter_specs
from repro.parallel.spec import PlanSpec


def noisy_spanning_tree(
    node_count: int = 24, extra_edges: int = 6, seed: int = 1, flip_milli: int = 2
):
    """The compiled scheme over a noisy channel — *two-sided* acceptance.

    The one workload in the registry whose acceptance probability sits
    strictly between 0 and 1, which is what the sharded-merge tests need to
    observe nontrivial per-shard counts.  ``flip_milli`` is the per-bit flip
    probability in thousandths (spec arguments stay hashable integers).  The
    noisy wrapper has no engine hooks, so this workload exercises the
    generic plan path, which runs in ``compat`` mode only (no ``vector``).
    """
    from repro.core.compiler import FingerprintCompiledRPLS
    from repro.core.noise import NoisyChannelRPLS
    from repro.graphs.generators import spanning_tree_configuration
    from repro.schemes.spanning_tree import SpanningTreePLS

    scheme = NoisyChannelRPLS(
        FingerprintCompiledRPLS(SpanningTreePLS()), flip_milli / 1000.0
    )
    return scheme, spanning_tree_configuration(node_count, extra_edges, seed=seed)


#: CLI names that predate the spec registry -> the spec they run
_ALIASES = {"k-flow": "flow", "boosted-spanning-tree": "boosting"}

#: every workload name the spec registry backs -> its spec
_SPEC_BACKED: Dict[str, VerdictSpec] = {
    **{spec.name: spec for spec in iter_specs()},
    **{alias: get_spec(name) for alias, name in _ALIASES.items()},
}

# name -> (builder, randomness the scheme runs under)
WORKLOADS: Dict[str, Tuple[Callable, str]] = {
    **{name: (spec.build, spec.randomness) for name, spec in _SPEC_BACKED.items()},
    "noisy-spanning-tree": (noisy_spanning_tree, "edge"),
}


def default_rng_mode(name: str) -> str:
    """The rng mode a workload runs in unless told otherwise.

    ``vector`` for spec-backed workloads (engine hooks, counter-based
    coins); ``compat`` for ``noisy-spanning-tree``, whose generic plan path
    has no vector mode.
    """
    return "vector" if name in _SPEC_BACKED else "compat"


def workload_spec(name: str, rng_mode: Optional[str] = None, **kwargs) -> PlanSpec:
    """The :class:`PlanSpec` of a registry workload at the given size.

    ``rng_mode=None`` picks the workload's own mode (:func:`default_rng_mode`).

    >>> workload_spec("spanning-tree", node_count=16).factory
    'repro.engine.specs:build_spanning_tree'
    >>> workload_spec("shared-coins").randomness
    'shared'
    >>> workload_spec("noisy-spanning-tree").rng_mode
    'compat'
    """
    try:
        factory, randomness = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r} (choose from {sorted(WORKLOADS)})"
        ) from None
    if rng_mode is None:
        rng_mode = default_rng_mode(name)
    return PlanSpec.of(factory, randomness=randomness, rng_mode=rng_mode, **kwargs)
