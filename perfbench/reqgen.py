"""Seeded request generation for the three benchmark workloads.

One :class:`ReqGenEngine` per run turns the ``--seed`` argument into every
input the program receives: graph seeds, Monte-Carlo seeds and the position
of each single-bit proof fault.  The same seed always yields the same
requests; the program never sees the seed itself.

Workload shapes (why each was chosen is recorded in ``BENCHMARK.json``):

- ``estimate-mix`` — a fixed pass of warm ``rng_mode="vector"`` plans at
  fixed trial budgets: three heavy plans (MST at 96 nodes, symmetry, boosted
  spanning tree) of about 80 ms each, and five light plans, each clean and
  proof-faulted, of about 24 ms each, so heavy and light plans take about
  half the busy time each and the median request is a light one.
- ``campaign-target`` — seven light cells for one adaptive campaign: five
  proof faults whose acceptance lies strictly inside (0, 1) and two clean
  plans.
- ``cold-estimate`` — an endless stream of fresh configurations, each sent
  once through the oracle, the compat compile path or the CLI.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

# Kernel family of each repro.parallel.factories workload.
FAMILY = {
    "spanning-tree": "fingerprint",
    "mst": "fingerprint",
    "symmetry": "fingerprint",
    "distance": "fingerprint",
    "k-flow": "fingerprint",
    "biconnectivity": "fingerprint",
    "boosted-spanning-tree": "threshold",
    "hamiltonicity": "threshold",
    "shared-coins": "parity",
    "mis": "parity",
}

# (workload, factory sizes, trials per request, with a proof-fault twin).
# Heavy plans run clean only: their single-bit faults are almost always
# rejected by a deterministic check, which makes a request's cost depend on
# where the flip landed.  Light plans also run a fault twin whose acceptance
# lies strictly inside (0, 1), so its coins decide every trial.
ESTIMATE_MIX = (
    ("mst", (("node_count", 96),), 64, False),
    ("symmetry", (), 20, False),
    ("boosted-spanning-tree", (("extra_edges", 60), ("node_count", 200)), 160, False),
    ("spanning-tree", (("extra_edges", 60), ("node_count", 200)), 192, True),
    ("shared-coins", (), 7040, True),
    ("mis", (), 7680, True),
    ("hamiltonicity", (), 704, True),
    ("biconnectivity", (), 352, True),
)

CAMPAIGN_FAULTS = ("mis", "shared-coins", "spanning-tree", "biconnectivity", "distance")
CAMPAIGN_CLEAN = ("mst", "hamiltonicity")
CAMPAIGN_TARGET_HALFWIDTH = 0.01
CAMPAIGN_GLOBAL_BUDGET = 400_000

COLD_SCHEMES = (
    ("spanning-tree", ()),
    ("mst", (("node_count", 32),)),
    ("distance", ()),
    ("k-flow", ()),
    ("mis", ()),
    ("hamiltonicity", ()),
    ("biconnectivity", ()),
)
# path -> trials per request; 7 schemes x 3 paths interleave into a 21-cycle.
COLD_PATHS = (("oracle", 16), ("batched", 64), ("cli", 32))
COLD_CYCLE = len(COLD_SCHEMES) * len(COLD_PATHS)

# CLI faces of the two warm workloads (cli_cold_s): clean requests only.
# One request shape each, so the median is not taken across shapes.
CAMPAIGN_CLI_FACE = "mis"
MIX_CLI_FACE = ("spanning-tree", (("extra_edges", 60), ("node_count", 200)), 256)


@dataclass(frozen=True)
class Req:
    """One request: which plan, how many trials, and through which path."""

    workload: str
    sizes: Tuple[Tuple[str, int], ...]  # factory kwargs, graph seed included
    trials: int
    seed: int  # Monte-Carlo master seed
    fault: Optional[Tuple[int, int]] = None  # (node index, flipped label bit)
    path: str = "fast"

    @property
    def family(self) -> str:
        return FAMILY[self.workload]

    @property
    def randomness(self) -> str:
        return "shared" if self.family == "parity" else "edge"

    @property
    def name(self) -> str:
        return f"{self.workload}/{'fault' if self.fault else 'clean'}/{self.path}"

    def to_json(self) -> Dict:
        return {
            "workload": self.workload,
            "sizes": [list(item) for item in self.sizes],
            "trials": self.trials,
            "seed": self.seed,
            "fault": list(self.fault) if self.fault else None,
            "path": self.path,
        }

    @classmethod
    def from_json(cls, data: Dict) -> "Req":
        return cls(
            workload=data["workload"],
            sizes=tuple(tuple(item) for item in data["sizes"]),
            trials=data["trials"],
            seed=data["seed"],
            fault=tuple(data["fault"]) if data["fault"] else None,
            path=data["path"],
        )


def clean_workload(workload: str, **sizes):
    """The registry workload's configuration with honest prover labels."""
    from repro.parallel.factories import WORKLOADS

    factory, _randomness = WORKLOADS[workload]
    scheme, configuration = factory(**sizes)[:2]
    return scheme, configuration, None


def proof_fault_workload(workload: str, node_index: int, bit: int, **sizes):
    """A legal configuration whose honest labels carry one flipped bit.

    Module-level with primitive arguments, so a ``PlanSpec`` can name it and
    campaign worker processes rebuild the same faulty plan.
    """
    scheme, configuration, _ = clean_workload(workload, **sizes)
    node = list(configuration.graph.nodes)[node_index]
    return scheme, configuration, flip_bit(scheme.prover(configuration), node, bit)


def flip_bit(labels, node, bit: int):
    """A copy of ``labels`` with one bit of ``node``'s label inverted."""
    from repro.core.bitstrings import BitString

    label = labels[node]
    flipped = dict(labels)
    flipped[node] = BitString(label.value ^ (1 << bit), len(label))
    return flipped


def plan_spec(req: Req):
    """The picklable ``PlanSpec`` a campaign cell ships to its workers."""
    from repro.parallel import PlanSpec, workload_spec

    if req.fault is None:
        return workload_spec(req.workload, rng_mode="vector", **dict(req.sizes))
    return PlanSpec.of(
        proof_fault_workload,
        req.workload,
        *req.fault,
        randomness=req.randomness,
        rng_mode="vector",
        **dict(req.sizes),
    )


class ReqGenEngine:
    """Seeded generator of every workload's requests."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"perfbench:{seed}")

    def _graph_sizes(self, sizes) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(dict(sizes, seed=self.rng.randrange(1 << 20)).items()))

    def _fault(self, workload: str, sizes, open_interval: bool) -> Tuple[int, int]:
        """A flipped label bit that leaves the plan coin-dependent.

        Flips whose label no longer parses fold to a constant-reject plan and
        would run no trials, so they are skipped.  With ``open_interval`` the
        acceptance on a 256-trial probe must also lie strictly inside (0, 1).
        """
        from repro.engine import VerificationPlan, estimate_acceptance_fast

        scheme, configuration, _ = clean_workload(workload, **dict(sizes))
        labels = scheme.prover(configuration)
        nodes = [n for n in configuration.graph.nodes if len(labels[n]) > 0]
        order = list(configuration.graph.nodes)
        randomness = "shared" if FAMILY[workload] == "parity" else "edge"
        for _attempt in range(400):
            node = self.rng.choice(nodes)
            bit = self.rng.randrange(len(labels[node]))
            faulty = flip_bit(labels, node, bit)
            plan = VerificationPlan(scheme, configuration, faulty, randomness, "vector")
            if plan.constant_verdict is not None:
                continue
            if open_interval:
                probe = estimate_acceptance_fast(plan, 256, seed=self.seed)
                if not 0 < probe.accepted < probe.trials:
                    continue
            return order.index(node), bit
        raise RuntimeError(f"no usable proof fault found for {workload}")

    def estimate_mix(self) -> List[Req]:
        """One pass of the estimate-mix workload."""
        reqs = []
        for workload, sizes, trials, with_fault in ESTIMATE_MIX:
            graph = self._graph_sizes(sizes)
            reqs.append(Req(workload, graph, trials, self.rng.randrange(1 << 30)))
            if with_fault:
                fault = self._fault(workload, graph, open_interval=True)
                reqs.append(Req(workload, graph, trials,
                                self.rng.randrange(1 << 30), fault))
        self.rng.shuffle(reqs)
        return reqs

    def campaign_cells(self) -> List[Req]:
        """The seven cells of the campaign-target workload."""
        cells = []
        for workload in CAMPAIGN_FAULTS:
            graph = self._graph_sizes(())
            fault = self._fault(workload, graph, open_interval=True)
            cells.append(Req(workload, graph, CAMPAIGN_GLOBAL_BUDGET,
                             self.rng.randrange(1 << 30), fault, "campaign"))
        for workload in CAMPAIGN_CLEAN:
            cells.append(Req(workload, self._graph_sizes(()), CAMPAIGN_GLOBAL_BUDGET,
                             self.rng.randrange(1 << 30), None, "campaign"))
        return cells

    def cold_stream(self) -> Iterator[Req]:
        """Cold requests forever: scheme i % 7 through path i % 3."""
        index = 0
        while True:
            workload, sizes = COLD_SCHEMES[index % len(COLD_SCHEMES)]
            path, trials = COLD_PATHS[index % len(COLD_PATHS)]
            yield Req(workload, self._graph_sizes(sizes), trials,
                      self.rng.randrange(1 << 30), None, path)
            index += 1

    def campaign_cli_face(self, count: int) -> List[Req]:
        """Clean CLI estimates run the campaign's way (process pool, stop)."""
        return [
            Req(CAMPAIGN_CLI_FACE, self._graph_sizes(()), 20_000,
                self.rng.randrange(1 << 30), None, "cli")
            for _ in range(count)
        ]

    def cli_face(self, count: int) -> List[Req]:
        """CLI requests mirroring the estimate-mix plans (clean, vector mode)."""
        workload, sizes, trials = MIX_CLI_FACE
        return [
            Req(workload, self._graph_sizes(sizes), trials,
                self.rng.randrange(1 << 30), None, "cli")
            for _ in range(count)
        ]

