"""Golden digests of every registry workload and every matrix configuration.

A workload is what a campaign cell, the CLI and the benchmarks actually
run: a scheme, a configuration and the honest prover labels.  Each digest
here hashes all three:

- the scheme chain (``name`` plus the integer parameters ``t`` /
  ``repetitions`` / ``c`` of the scheme and of every wrapped ``base``) —
  without it ``spanning-tree`` and ``boosted-spanning-tree`` would collide,
  since they share configuration and labels;
- :func:`repro.engine.cache.configuration_key` of the configuration;
- the honest labels, node by node.

The digests pin three families of inputs: every ``WORKLOADS`` name at its
default sizes, the three sized workloads the end-to-end benchmark builds,
and every verdict spec's clean / state-fault matrix pair at seed 0.  A
change that rewires how any of them is built must leave these bytes alone
(or update a digest on purpose, with the reason on record).

Frozensets are hashed in sorted order, so the digests do not depend on
``PYTHONHASHSEED`` (checked by subprocess runs under two other seeds).
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.engine.cache import configuration_key
from repro.engine.specs import (
    clean_configuration,
    fault_configuration,
    get_spec,
    scheme_for,
)
from repro.parallel.factories import WORKLOADS

SCHEME_PARAMETERS = ("t", "repetitions", "c")


def _canonical(value):
    """``value`` with every frozenset replaced by its sorted tuple."""
    if isinstance(value, frozenset):
        return ("frozenset",) + tuple(sorted((_canonical(v) for v in value), key=repr))
    if isinstance(value, tuple):
        return tuple(_canonical(item) for item in value)
    return value


def scheme_chain(scheme):
    """(name, integer parameters) of the scheme and every wrapped base."""
    chain = []
    while scheme is not None:
        params = tuple(
            (attr, getattr(scheme, attr))
            for attr in SCHEME_PARAMETERS
            if isinstance(getattr(scheme, attr, None), int)
        )
        chain.append((scheme.name, params))
        scheme = getattr(scheme, "base", None)
    return tuple(chain)


def workload_digest(scheme, *configurations):
    """sha256 over the scheme chain, the configurations and the honest
    labels on the first configuration (the matrix replays those against the
    fault one)."""
    labels = scheme.prover(configurations[0])
    payload = (
        scheme_chain(scheme),
        tuple(_canonical(configuration_key(c)) for c in configurations),
        tuple(
            sorted((repr(node), label.value, label.length) for node, label in labels.items())
        ),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def default_digest(name):
    scheme, configuration = WORKLOADS[name][0]()[:2]
    return workload_digest(scheme, configuration)


#: the sizes ``perfbench`` builds its heavy plans at, with one fixed seed
BENCHMARK_SIZES = {
    "mst": {"node_count": 96, "seed": 17},
    "spanning-tree": {"node_count": 200, "extra_edges": 60, "seed": 17},
    "boosted-spanning-tree": {"node_count": 200, "extra_edges": 60, "seed": 17},
}


def benchmark_digest(name):
    scheme, configuration = WORKLOADS[name][0](**BENCHMARK_SIZES[name])[:2]
    return workload_digest(scheme, configuration)


def matrix_digest(name):
    spec = get_spec(name)
    scheme = scheme_for(spec)
    return workload_digest(
        scheme, clean_configuration(spec, 0), fault_configuration(spec, 0)
    )


DEFAULT_DIGESTS = {
    "acyclicity": "6f2428e6c81d9e14",
    "biconnectivity": "7b92701f1cd38bc7",
    "bipartiteness": "92303a3085686258",
    "boosted-spanning-tree": "321061e82f87e3f0",
    "coloring": "da1b88b155b26607",
    "cycle-length": "8397e509857137f6",
    "distance": "652bfa36ed41d625",
    "eulerian": "a0b871a5635c1eab",
    "hamiltonicity": "67fdb4812d0037d2",
    "k-flow": "6dc9fda85637ef48",
    "leader": "8356702b60d2fa88",
    "mis": "0e0987f632d6bca4",
    "mst": "9baf64b4a78a59ee",
    "noisy-spanning-tree": "855526c1d9fa997d",
    "shared-coins": "7fcf240c015ee97c",
    "spanning-tree": "167f22e20a986f37",
    "symmetry": "2634b6cf3c35fe73",
    "uniformity": "b89141a3d0665ec5",
    "vertex-connectivity": "ea79de0d0b93779c",
}

BENCHMARK_DIGESTS = {
    "boosted-spanning-tree": "89599e858b153745",
    "mst": "b5df3e0adae459a6",
    "spanning-tree": "9b57aeef81f58c38",
}

MATRIX_DIGESTS = {
    "acyclicity": "7080854f9ac84dfc",
    "biconnectivity": "ce900f8bc7e5e44b",
    "bipartiteness": "ebb54a487860731f",
    "boosting": "8bb9630653659d8a",
    "coloring": "8c025a58b0627662",
    # Labels from the planted witness the builder threads into the scheme
    # (they came from the prover's own cycle search before the registry
    # merge); configurations unchanged.
    "cycle-length": "e7cc6f7afd95ef63",
    "distance": "da4d0838b8c9ddbd",
    "eulerian": "644235a9dc640b1c",
    "fingerprint": "e0a3f726d18adb8d",
    "flow": "6f069ebcb6ab2eee",
    "hamiltonicity": "985833429e8edd84",  # planted witness, as cycle-length
    "leader": "ef6a75b286718caa",
    "mis": "90d47dfbb6d16877",
    "mst": "8fd0cc8b0be4f406",
    "shared-coins": "a832a39441d15381",
    "spanning-tree": "e0a3f726d18adb8d",
    "symmetry": "79dd06906932351c",
    "uniformity": "560fdbb346ecd4e2",
    "vertex-connectivity": "7afc25a42c8b9a44",
}


@pytest.mark.parametrize("name", sorted(DEFAULT_DIGESTS))
def test_default_workload_digest(name):
    assert default_digest(name) == DEFAULT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BENCHMARK_DIGESTS))
def test_benchmark_sized_workload_digest(name):
    assert benchmark_digest(name) == BENCHMARK_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MATRIX_DIGESTS))
def test_matrix_configuration_digest(name):
    assert matrix_digest(name) == MATRIX_DIGESTS[name]


def all_digests():
    return {
        "default": {name: default_digest(name) for name in sorted(DEFAULT_DIGESTS)},
        "benchmark": {name: benchmark_digest(name) for name in sorted(BENCHMARK_DIGESTS)},
        "matrix": {name: matrix_digest(name) for name in sorted(MATRIX_DIGESTS)},
    }


@pytest.mark.parametrize("hash_seed", ("0", "2"))
def test_digests_do_not_depend_on_the_hash_seed(hash_seed):
    """A fresh interpreter under another ``PYTHONHASHSEED`` agrees.

    Seeds 0 and 2 iterate string-keyed sets in different orders; before
    ``max_flow`` iterated its BFS neighbours in insertion order, the
    vertex-connectivity prover picked different augmenting paths (hence
    different labels) under the two.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH", "")]
    )
    code = (
        "import json, test_workload_digests as t; "
        "print(json.dumps(t.all_digests()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == all_digests()


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1))
