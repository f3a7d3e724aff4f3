"""Verification of the scheme's claims on concrete transcripts.

Three independent checks, all computed from the server's view alone:

* posterior: the exact demand posterior given the observed partition
  sequence.  Every (side-information set, demand sequence) pair that could
  have produced the transcript is equally likely -- its probability is the
  same product of uniform priors and per-round randomness probabilities --
  so the posterior is a ratio of counts.  A hypothesis's future depends only
  on its chain block (the observed block holding its side set and demands
  so far), so the counts are taken by a forward and a backward pass over
  chain blocks, each round's links read from the previous round's owner
  array (protocol.Transcript.owners) in time linear in K, instead of listing
  the K * prod 2^(i-2)(M+1) hypotheses.  For a correct run every per-round
  posterior row is uniformly 1/K.  enumerate_hypotheses lists them one by
  one; it is the brute-force reference the counts are tested against.
* capacity / measured_rate: the closed-form per-round rate versus the rate
  actually achieved (1 / packets downloaded).
* rank_profile: each round's packet-coefficient rank, which should equal
  the packet count (no wasted download).  A packet's coefficients are zero
  outside its block, so when a round's blocks partition [1..K] its rank is
  the sum of per-block ranks, each min(packets, members) by the Cauchy
  theorem: the points are checked and no matrix is built.

Every check on a transcript first reads its one verdict,
protocol.Transcript.owners, which refuses a transcript whose rounds are
not numbered 1, 2, ..., do not each partition [1..K], or carry an answer
that the one answer rule (protocol.check_answer) refuses:
InconsistentTranscript.  The transcript reader reads the same verdict, so
a transcript read from bytes was judged once, and no check judges it again.

Everything uses exact integer and rational arithmetic; equality checks need
no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cauchy import check_points, derive_l
from .errors import InconsistentTranscript, RoundOutOfRange
from .field import matrix_rank  # noqa: F401 (perfbench/tracing.py wraps audit.matrix_rank)
from .protocol import (
    Block,
    PartitionQuery,
    Transcript,
    merge_parts,
    packet_layout,
)


@dataclass(frozen=True)
class Hypothesis:
    """One candidate explanation of a transcript: who knew what, who asked what."""

    side: frozenset[int]
    demands: tuple[int, ...]


@dataclass(frozen=True)
class PosteriorTable:
    """Exact demand posteriors: rows[j-1][w-1] = P(round-j demand = w)."""

    k: int
    rows: tuple[tuple[Fraction, ...], ...]
    hypothesis_count: int

    @property
    def rounds(self) -> int:
        return len(self.rows)

    def row(self, round_no: int) -> tuple[Fraction, ...]:
        return self.rows[round_no - 1]

    def is_uniform(self) -> bool:
        """True when every entry is exactly 1/K: nothing leaked."""
        target = Fraction(1, self.k)
        return all(p == target for row in self.rows for p in row)


def enumerate_hypotheses(transcript: Transcript) -> tuple[Hypothesis, ...]:
    """All (side set, demand sequence) pairs consistent with the queries.

    Walks the rounds forward.  Round 1: the demand-plus-side block can be
    any observed block, split any of the M+1 ways.  Round i >= 2: the
    hypothesis's accumulated chain block must sit inside exactly one
    observed block whose other half is a previous-round block, and every
    other observed block must merge two previous-round blocks; the demand
    can be any element of that other half.

    This is the brute-force reference for posterior: its size is
    K * prod 2^(i-2)(M+1), so it is for tests on small shapes.
    """
    transcript.owners  # the verdict: InconsistentTranscript unless well formed

    # state: (side, demands, chain block as frozenset)
    states: list[tuple[frozenset[int], tuple[int, ...], frozenset[int]]] = []
    for block in transcript.rounds[0].query.blocks:
        members = frozenset(block)
        for w in block:
            states.append((members - {w}, (w,), members))

    for prev, rnd in zip(transcript.rounds, transcript.rounds[1:]):
        prev_sets = {frozenset(b) for b in prev.query.blocks}
        blocks = [frozenset(b) for b in rnd.query.blocks]
        # A block is a well-formed merge if it is the union of exactly two
        # previous-round blocks; hypotheses only differ in WHICH block is
        # the demand-chain merge, so precompute this once.
        well_formed = [
            sum(1 for p in prev_sets if p <= b) == 2
            and set().union(*(p for p in prev_sets if p <= b)) == b
            for b in blocks
        ]
        next_states = []
        for side, demands, chain in states:
            merged = [bi for bi, b in enumerate(blocks) if chain <= b]
            if len(merged) != 1:
                continue
            d_index = merged[0]
            other = blocks[d_index] - chain
            if other not in prev_sets:
                continue
            if not all(well_formed[bi] for bi in range(len(blocks)) if bi != d_index):
                continue
            for w in sorted(other):
                next_states.append((side, demands + (w,), blocks[d_index]))
        states = next_states

    if not states:
        raise InconsistentTranscript(
            "no side-information and demand assignment explains this transcript"
        )
    return tuple(Hypothesis(side=s, demands=d) for s, d, _ in states)


def _chain_links(
    prev: PartitionQuery, query: PartitionQuery, owner: list[int]
) -> list[tuple[int, Block]]:
    """Where a chain ending at each previous-round block goes this round.

    Entry p is (d, other): query.blocks[d] merges prev.blocks[p] with the
    previous block other, where this round's demand lies.  owner is
    block_owners of prev.  A chain's merge and every other block must each
    merge two previous blocks, so a block that does not leaves no
    hypothesis: InconsistentTranscript.
    """
    links = [None] * len(prev.blocks)  # each filled by the one merge holding it
    for d, block in enumerate(query.blocks):
        parts = merge_parts(block, owner, prev.blocks)
        if parts is None:
            raise InconsistentTranscript(
                "no side-information and demand assignment explains this transcript"
            )
        a, b = parts
        links[a], links[b] = (d, prev.blocks[b]), (d, prev.blocks[a])
    return links


def posterior(transcript: Transcript) -> PosteriorTable:
    """Exact Bayesian demand posteriors given everything the server saw.

    All consistent hypotheses are equally likely, so each row is the number
    of hypotheses whose demand that round is w over the number in all.  A
    forward pass counts hypothesis prefixes ending at each chain block, a
    backward pass counts their completions; a round-i demand in the other
    half of a chain's merge counts prefixes times completions.
    """
    owners = transcript.owners
    k = transcript.params.k
    queries = [rnd.query for rnd in transcript.rounds]
    links = [_chain_links(p, q, owner) for p, q, owner in zip(queries, queries[1:], owners)]

    # forward[i][p]: hypotheses up to round i+1 whose chain is block p of that round
    forward = [[len(b) for b in queries[0].blocks]]
    for step, query in zip(links, queries[1:]):
        counts = [0] * len(query.blocks)
        for p, (d, other) in enumerate(step):
            counts[d] += forward[-1][p] * len(other)
        forward.append(counts)
    # backward[i][p]: ways to finish the transcript from block p of round i+1
    backward = [[1] * len(queries[-1].blocks)]
    for step in reversed(links):
        later = backward[0]
        backward.insert(0, [len(other) * later[d] for d, other in step])

    total = sum(forward[-1])
    mass = [0] * k
    for p, block in enumerate(queries[0].blocks):
        for w in block:
            mass[w - 1] += backward[0][p]
    rows = [tuple(Fraction(c, total) for c in mass)]
    for i, step in enumerate(links):
        mass = [0] * k
        for p, (d, other) in enumerate(step):
            ways = forward[i][p] * backward[i + 1][d]
            for w in other:
                mass[w - 1] += ways
        rows.append(tuple(Fraction(c, total) for c in mass))
    return PosteriorTable(k=k, rows=tuple(rows), hypothesis_count=total)


def capacity(k: int, m: int, round_no: int) -> Fraction:
    """Closed-form per-round rate: (M+1)/K at round 1, 2^(i-1)(M+1)/(KM) after."""
    l = derive_l(k, m)
    if not 1 <= round_no <= l + 1:
        raise RoundOutOfRange(f"round {round_no} outside 1..{l + 1}")
    if round_no == 1:
        return Fraction(m + 1, k)
    return Fraction(2 ** (round_no - 1) * (m + 1), k * m)


def capacity_table(k: int, m: int) -> tuple[tuple[int, Fraction], ...]:
    """(round, capacity) for every round the parameters support."""
    return tuple((i, capacity(k, m, i)) for i in range(1, derive_l(k, m) + 2))


def measured_rate(transcript: Transcript, round_no: int) -> Fraction:
    """Achieved rate at a round: one message per packet downloaded, read
    from a transcript whose every answer passes the answer rule."""
    transcript.owners  # the verdict: InconsistentTranscript unless well formed
    if not 1 <= round_no <= len(transcript.rounds):
        raise ValueError(f"transcript has no round {round_no}")
    return Fraction(1, len(transcript.rounds[round_no - 1].answer))


def rank_profile(transcript: Transcript) -> tuple[tuple[int, int], ...]:
    """(round, rank of that round's packet coefficients) for every round.

    The rank is summed block by block, exact only because the blocks
    partition [1..K], which the transcript's verdict checks.  A block's rank
    is min(len(columns), len(block)): every square minor of a Cauchy matrix
    with distinct points is a nonzero Cauchy determinant.  check_points
    refuses the points build_cauchy refuses, and no matrix is built.
    """
    transcript.owners  # the verdict: InconsistentTranscript unless well formed
    params = transcript.params
    check_points(params.k, params.m, params.l, params.q, transcript.cauchy_x, transcript.cauchy_y)
    profile = []
    for i, rnd in enumerate(transcript.rounds, start=1):
        layout = packet_layout(params, rnd.query)
        profile.append((i, sum(min(len(block), len(columns)) for block, columns in layout)))
    return tuple(profile)
