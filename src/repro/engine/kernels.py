"""Vectorized trial-chunk execution — numpy passes over whole chunks.

The scalar hook path of :class:`~repro.engine.plan.VerificationPlan` spends
almost all of its per-trial time in two interpreted Horner loops (sender-side
fingerprint sampling, receiver-side checking): one multiply-add-mod step per
label bit, per query point, per half-edge, per trial.  For a scheme whose
certificates are *pure polynomial fingerprints* — the Theorem 3.1 compiler
and its boosted wrapper — those loops share their coefficient vectors across
every trial of a Monte-Carlo chunk, so the whole chunk collapses to a few
batched :func:`repro.substrates.gf.poly_eval_rows` passes:

1. **draw** — in ``rng_mode="compat"`` the chunk's query points are drawn
   with the *same* ``random.Random`` calls, in the *same* order, as the
   scalar hook path (Horner evaluation consumes no randomness, so deferring
   it cannot change any draw).  This is what keeps the kernel
   decision-identical per trial to the legacy one-shot oracle.  In
   ``rng_mode="vector"``
   the draws come from the counter-based SplitMix64 stream of
   :mod:`repro.core.seeding`, whose word ``k`` is a closed-form function of
   ``(stream seed, k)`` — the entire chunk's points evaluate as **one**
   ``uint64`` array op (:func:`repro.core.seeding.stream_words`), with zero
   per-point Python-level loop iterations; the scalar
   :class:`~repro.core.seeding.CounterRng` path replays the identical words,
   so vector mode too is decision-identical between its kernels.
2. **evaluate** — every sender's label polynomial is evaluated at all of its
   ``trials x draws`` points in one grouped Horner pass (rows grouped by
   ``(prime, degree)``; the honest case is a single group).
3. **check** — every receiver evaluates its stored replica at the points it
   received, again as one grouped pass, and the per-trial accept bit is the
   conjunction of the elementwise comparisons plus each node's
   trial-invariant residual verdict.

A second kernel family covers the shared-coins compiler
(:class:`~repro.core.shared.SharedCoinsCompiledRPLS`), whose certificates
are GF(2) inner products rather than polynomial evaluations: sender and
receiver agree on an edge exactly when ``parity((own ^ stored) & mask) ==
0`` for every public mask, so the plan compiles each (receiver, port) pair
into a packed-``uint64`` XOR-diff row and a whole chunk's checks batch as
one AND + XOR-reduce + popcount-parity pass
(:func:`repro.substrates.gf.gf2_inner_parities`).

Eligibility is decided once per plan (:func:`vector_state`): the scheme must
expose the optional ``engine_vector_spec`` hook and every node context must
produce a spec of one kind — :class:`~repro.core.fingerprint.FingerprintVectorSpec`
for the Horner kernel, :class:`~repro.core.shared.ParityVectorSpec` for the
parity kernel — otherwise the plan runs the scalar hook path unchanged.
Trial-invariant rejections (a node whose residual verdict is False, a
sender/receiver fingerprint-format mismatch, a shared-coins plan run without
public coins) make every trial of the plan reject; the kernels fold them
into a constant-False chunk without touching the arithmetic, mirroring the
plan-level constant-False short-circuit for unparseable labels.

Arithmetic is exact: coefficients and query points live below the
fingerprint prime ``p < 6 * lam``, so every Horner step stays below
``p**2 + p``, far inside int64 (enforced via
:func:`repro.substrates.gf.vectorizable_prime`); the GF(2) kernel is plain
bitwise algebra on ``uint64`` lanes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.fingerprint import FingerprintVectorSpec
from repro.core.scheme import SHARED_RNG_SUFFIX
from repro.core.seeding import (
    derive_stream_seed_array,
    stream_words,
)
from repro.core.shared import ParityVectorSpec
from repro.engine.plan import check_rng_mode
from repro.substrates.gf import (
    WORD_BITS,
    gf2_inner_parities,
    numpy_available,
    pack_value_words,
    poly_eval_rows,
)

try:  # optional accelerator; vector_state() returns None without it
    import numpy as _np
except ImportError:  # pragma: no cover - the image ships numpy
    _np = None

_UNSET = object()
_MASK64 = (1 << 64) - 1


@dataclass
class _VectorState:
    """Per-plan immutable description consumed by the fingerprint kernel."""

    draws: int                       # query points drawn per half-edge call
    primes: Tuple[int, ...]          # per node: its fingerprint field
    constant_false: bool             # some node rejects every trial
    # Sender groups: rows share (prime, degree); one row per half-edge.
    # (prime, flat half-edge indices, coefficient matrix)
    sender_groups: Tuple[Tuple[int, "object", "object"], ...]
    # Receiver groups: one row per (receiver, port) pair; ``sources`` are the
    # flat indices of the half-edges whose messages the rows check.
    # (receiver prime, source flat indices, stored-coefficient matrix)
    receiver_groups: Tuple[Tuple[int, "object", "object"], ...]
    # Vector-mode draw layout (None on constant-False states): the flat
    # counter of each (half-edge, draw) position in its trial stream, and
    # the field each position reduces into — together they turn the whole
    # chunk's draws into stream_words(bases, counters) % flat_primes.
    counters: Optional["object"] = None       # (half_edges * draws,) uint64
    flat_primes: Optional["object"] = None    # (half_edges * draws,) uint64


@dataclass
class _ParityState:
    """Per-plan immutable description consumed by the parity kernel."""

    repetitions: int                 # public masks (= certificate bits) per trial
    width: int                       # replica width the masks are drawn at
    mask_words: int                  # ceil(width / 64)
    constant_false: bool             # some node rejects every trial
    # One packed XOR-diff row per (receiver, port) pair: the parity checks
    # of a trial pass exactly when every mask's inner product with every
    # row is 0.
    diff_words: Optional["object"] = None     # (pairs, mask_words) uint64


def vector_state(plan):
    """Build (and cache on the plan) the vectorized description, if eligible.

    Returns a :class:`_VectorState` (fingerprint Horner kernel), a
    :class:`_ParityState` (shared-coins GF(2) kernel), or ``None`` when the
    plan cannot run vectorized: numpy missing, no scheme hooks, a hook
    context without a vector spec, mixed spec kinds, or an
    unparseable-label context — the latter is already a plan-level constant
    False and never reaches the kernel.
    """
    cached = getattr(plan, "_vector_state", _UNSET)
    if cached is not _UNSET:
        return cached
    state = _build_vector_state(plan)
    plan._vector_state = state
    return state


def _half_edge_owners(plan) -> Tuple[List[int], List[int]]:
    """Flat-layout helpers: per-node offsets and per-half-edge owner index."""
    offsets: List[int] = []
    total = 0
    for degree in plan.degrees:
        offsets.append(total)
        total += degree
    owner = [0] * total
    for i, offset in enumerate(offsets):
        for port in range(plan.degrees[i]):
            owner[offset + port] = i
    return offsets, owner


def _build_vector_state(plan):
    if _np is None or not numpy_available():
        return None
    if plan.contexts is None:
        return None
    spec_hook = getattr(plan.scheme, "engine_vector_spec", None)
    if spec_hook is None:
        return None
    specs = []
    for context in plan.contexts:
        if context is None:
            return None  # plan.constant_verdict is False; nothing to run
        spec = spec_hook(context)
        if spec is None:
            return None
        specs.append(spec)
    if all(isinstance(spec, FingerprintVectorSpec) for spec in specs):
        return _build_fingerprint_state(plan, specs)
    if all(isinstance(spec, ParityVectorSpec) for spec in specs):
        return _build_parity_state(plan, specs)
    return None  # pragma: no cover - one scheme produces one spec kind


def _build_fingerprint_state(plan, specs) -> Optional[_VectorState]:
    draws = {spec.draws for spec in specs}
    if len(draws) != 1:  # pragma: no cover - one scheme, one draw count
        return None
    draw_count = draws.pop()

    constant_false = any(not spec.accepts_when_checks_pass for spec in specs)

    # Sender/receiver fingerprint-format mismatches (a forged label claiming
    # a different kappa) are trial-invariant: the scalar check_raw rejects on
    # packed width / point count before any arithmetic, every trial.
    offsets, owner = _half_edge_owners(plan)
    for i, incoming_ports in enumerate(plan.incoming):
        for j in incoming_ports:
            sender = specs[owner[j]]
            receiver = specs[i]
            if (
                sender.certificate_bits != receiver.certificate_bits
                or sender.sub_points != receiver.sub_points
            ):
                constant_false = True

    if constant_false:
        return _VectorState(
            draws=draw_count,
            primes=tuple(spec.prime for spec in specs),
            constant_false=True,
            sender_groups=(),
            receiver_groups=(),
        )

    # Group sender rows (one per half-edge) by (prime, polynomial degree) so
    # each group is a single poly_eval_rows pass.
    sender_rows: Dict[Tuple[int, int], Tuple[List[int], List["object"]]] = {}
    for i, spec in enumerate(specs):
        key = (spec.prime, len(spec.own))
        for port in range(plan.degrees[i]):
            indices, rows = sender_rows.setdefault(key, ([], []))
            indices.append(offsets[i] + port)
            rows.append(spec.own)
    sender_groups = tuple(
        (prime, _np.asarray(indices, dtype=_np.intp), _np.vstack(rows))
        for (prime, _), (indices, rows) in sender_rows.items()
    )

    # Group receiver rows (one per (receiver, port) pair) the same way; the
    # row's points come from the half-edge delivering that port's message.
    receiver_rows: Dict[Tuple[int, int], Tuple[List[int], List["object"]]] = {}
    for i, spec in enumerate(specs):
        for port, source in enumerate(plan.incoming[i]):
            stored = spec.stored[port]
            key = (spec.prime, len(stored))
            sources, rows = receiver_rows.setdefault(key, ([], []))
            sources.append(source)
            rows.append(stored)
    receiver_groups = tuple(
        (prime, _np.asarray(sources, dtype=_np.intp), _np.vstack(rows))
        for (prime, _), (sources, rows) in receiver_rows.items()
    )

    # Vector-mode layout.  Half-edge h's draw d sits at flat position
    # h * draws + d; under edge/node randomness one stream feeds every
    # position in sequence, under shared randomness every half-edge replays
    # the public stream from word 0 (each sender re-seeds per call).
    primes = tuple(spec.prime for spec in specs)
    flat_primes = _np.repeat(
        _np.asarray(primes, dtype=_np.uint64),
        _np.asarray(plan.degrees, dtype=_np.intp) * draw_count,
    )
    if plan.randomness == "shared":
        counters = _np.tile(
            _np.arange(draw_count, dtype=_np.uint64), plan.half_edge_count
        )
    else:
        counters = _np.arange(plan.half_edge_count * draw_count, dtype=_np.uint64)

    return _VectorState(
        draws=draw_count,
        primes=primes,
        constant_false=False,
        sender_groups=sender_groups,
        receiver_groups=receiver_groups,
        counters=counters,
        flat_primes=flat_primes,
    )


def _build_parity_state(plan, specs) -> Optional[_ParityState]:
    repetitions = {spec.repetitions for spec in specs}
    if len(repetitions) != 1:  # pragma: no cover - one scheme, one t
        return None
    t = repetitions.pop()

    widths = {spec.width for spec in specs}
    if len(widths) != 1:
        # Differing kappa claims across nodes draw masks at different
        # widths, so the per-edge verdicts are genuinely random *and*
        # asymmetric — the scalar hook path handles that shape; the batched
        # kernel only takes the uniform-width case every honest (and every
        # single-bit-fault) workload has.
        return None
    width = widths.pop()

    # A shared-coins plan run under a private-coin randomness mode is a
    # model mismatch: engine_verify receives no public coins and rejects,
    # every node, every trial.
    constant_false = plan.randomness != "shared" or any(
        not spec.accepts_when_checks_pass for spec in specs
    )
    mask_words = (width + WORD_BITS - 1) // WORD_BITS
    if constant_false:
        return _ParityState(
            repetitions=t,
            width=width,
            mask_words=mask_words,
            constant_false=True,
        )

    _offsets, owner = _half_edge_owners(plan)
    diffs: List[List[int]] = []
    for i, spec in enumerate(specs):
        for port, source in enumerate(plan.incoming[i]):
            diff = spec.stored_values[port] ^ specs[owner[source]].own_value
            diffs.append(pack_value_words(diff, width))
    diff_words = (
        _np.asarray(diffs, dtype=_np.uint64)
        if diffs and mask_words
        else None  # edgeless graph or width 0: every parity check passes
    )
    return _ParityState(
        repetitions=t,
        width=width,
        mask_words=mask_words,
        constant_false=False,
        diff_words=diff_words,
    )


def run_chunk(plan, trial_seeds, rng_mode: Optional[str] = None):
    """Run a chunk of trials vectorized; returns a per-trial bool array.

    ``accepted[t]`` equals ``plan.run_trial(trial_seeds[t], rng_mode)`` for
    every ``t`` — the kernel is a faithful re-execution of the scalar hook
    path, not an approximation.  The plan must be vector-eligible
    (:func:`vector_state` not ``None``); callers go through
    ``plan.run_trials(..., vectorize=True)`` which enforces that.
    """
    state = vector_state(plan)
    if state is None:
        raise ValueError("plan has no vectorized kernel (see VerificationPlan.vector_ready)")
    if rng_mode is None:
        rng_mode = plan.rng_mode
    trials = len(trial_seeds)
    if state.constant_false:
        return _np.zeros(trials, dtype=bool)
    if isinstance(state, _ParityState):
        return _run_parity_chunk(plan, state, trial_seeds, rng_mode)

    xs = _draw_points(plan, state, trial_seeds, rng_mode)
    draws = state.draws

    # Sender evaluation: values[t, j, d] = A_j(xs[t, j, d]) over the sender's
    # field, where A_j is the label polynomial of half-edge j's owner.
    values = _np.empty_like(xs)
    for prime, indices, coefficients in state.sender_groups:
        points = xs[:, indices, :].transpose(1, 0, 2).reshape(len(indices), -1)
        evaluated = poly_eval_rows(coefficients, points, prime)
        values[:, indices, :] = evaluated.reshape(
            len(indices), trials, draws
        ).transpose(1, 0, 2)

    # Receiver checks: the stored replica's evaluation must equal the claimed
    # value, and both coordinates must lie inside the receiver's field.
    accept = _np.ones(trials, dtype=bool)
    for prime, sources, coefficients in state.receiver_groups:
        rows = len(sources)
        points = xs[:, sources, :].transpose(1, 0, 2).reshape(rows, -1)
        claimed = values[:, sources, :].transpose(1, 0, 2).reshape(rows, -1)
        expected = poly_eval_rows(coefficients, points, prime)
        ok = (points < prime) & (claimed < prime) & (expected == claimed)
        per_trial = ok.reshape(rows, trials, draws).all(axis=2).all(axis=0)
        accept &= per_trial
    return accept


# -- query-point derivation -----------------------------------------------------
#
# Each helper replays the exact rng consumption of the scalar hook path for
# its (rng_mode, randomness) pair: same seeds, same reseed boundaries, same
# randrange arguments, same order.  The only difference is that the Horner
# evaluation between draws is deferred — it consumes no randomness.  Compat
# mode necessarily replays random.Random call by call; vector mode has no
# sequential generator at all, so its draw stage is a single stream_words
# broadcast with zero per-point Python iterations.


def _vector_bases(plan, trial_seeds):
    """Per-trial stream seeds for vector mode — the chunk's base array.

    Edge/node randomness feeds one sequential stream per trial (the
    ``derive_stream_seed(trial_seed, 0, 0)`` address of the scalar hook
    path); shared randomness uses the public stream address.  The mask
    reduces arbitrary Python ints before the uint64 conversion.
    """
    masked = [seed & _MASK64 for seed in trial_seeds]
    if plan.randomness == "shared":
        return derive_stream_seed_array(masked, -1, -1)
    return derive_stream_seed_array(masked, 0, 0)


def _draw_points(plan, state: _VectorState, trial_seeds, rng_mode: str):
    draws = state.draws
    primes = state.primes
    degrees = plan.degrees

    if rng_mode == "vector":
        words = stream_words(_vector_bases(plan, trial_seeds), state.counters)
        return (
            (words % state.flat_primes[None, :])
            .astype(_np.int64)
            .reshape(len(trial_seeds), plan.half_edge_count, draws)
        )

    randomness = plan.randomness
    flat: List[int] = []
    append = flat.append
    rng = random.Random()
    reseed = rng.seed
    randrange = rng.randrange
    draw_range = range(draws)

    check_rng_mode(rng_mode)
    for trial_seed in trial_seeds:
        prefix = str(trial_seed)
        if randomness == "edge":
            for suffixes, prime in zip(plan.port_suffixes, primes):
                for suffix in suffixes:
                    reseed(prefix + suffix)
                    for _ in draw_range:
                        append(randrange(prime))
        elif randomness == "node":
            for i, prime in enumerate(primes):
                reseed(prefix + plan.node_suffixes[i])
                for _ in range(degrees[i] * draws):
                    append(randrange(prime))
        elif randomness == "shared":
            shared_key = prefix + SHARED_RNG_SUFFIX
            for i, prime in enumerate(primes):
                for _ in range(degrees[i]):
                    reseed(shared_key)
                    for _ in draw_range:
                        append(randrange(prime))
        else:  # pragma: no cover - guarded upstream
            raise ValueError(f"unknown randomness mode {randomness!r}")

    return _np.asarray(flat, dtype=_np.int64).reshape(
        len(trial_seeds), plan.half_edge_count, draws
    )


# -- shared-coins parity kernel -------------------------------------------------


def _draw_masks(plan, state: _ParityState, trial_seeds, rng_mode: str):
    """The chunk's public masks, packed: a (trials, t, words) uint64 array.

    Every sender of a trial re-derives the same masks from the shared
    stream, so one draw per trial covers the whole round.  Compat mode
    replays ``random.Random.getrandbits`` mask by mask; vector mode
    evaluates the counter-based stream in one broadcast, truncating the top
    word exactly as :meth:`CounterRng.getrandbits` does.
    """
    t = state.repetitions
    width = state.width
    words = state.mask_words

    if rng_mode == "vector":
        bases = _vector_bases(plan, trial_seeds)
        packed = stream_words(bases, _np.arange(t * words, dtype=_np.uint64))
        packed = packed.reshape(len(trial_seeds), t, words)
        top = width - WORD_BITS * (words - 1)
        packed[:, :, words - 1] &= _np.uint64((1 << top) - 1)
        return packed

    check_rng_mode(rng_mode)
    masks: List[List[int]] = []
    for trial_seed in trial_seeds:
        rng = random.Random(f"{trial_seed}{SHARED_RNG_SUFFIX}")
        for _ in range(t):
            masks.append(pack_value_words(rng.getrandbits(width), width))
    return _np.asarray(masks, dtype=_np.uint64).reshape(len(trial_seeds), t, words)


def _run_parity_chunk(plan, state: _ParityState, trial_seeds, rng_mode: str):
    """The GF(2) chunk: every trial's parity checks as one popcount pass."""
    trials = len(trial_seeds)
    if state.diff_words is None:
        # No edges, or zero-width replicas: nothing randomized can fail.
        return _np.ones(trials, dtype=bool)
    masks = _draw_masks(plan, state, trial_seeds, rng_mode)
    # parities[t, m, pair] = <diff_pair, mask_{t,m}> over GF(2); a trial
    # accepts iff every inner product is 0 (all senders matched all
    # receivers' stored replicas on every public mask).
    parities = gf2_inner_parities(state.diff_words, masks)
    return ~parities.any(axis=(1, 2))
