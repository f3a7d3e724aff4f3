"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports opir.  The download schedule, the coding columns, the
packet formula and the hypothesis count are written out from the paper's
definitions with plain integer and Fraction arithmetic, so a fault in the
program cannot hide inside its own check.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(Exception):
    """An output of the program differs from the reference computation."""


def packet_count(k: int, m: int, round_no: int) -> int:
    """Packets downloaded at a round: K/(M+1), then KM/(2^(i-1)(M+1))."""
    if round_no == 1:
        return k // (m + 1)
    return k * m // (2 ** (round_no - 1) * (m + 1))


def capacity(k: int, m: int, round_no: int) -> Fraction:
    """Per-round capacity: (M+1)/K, then 2^(i-1)(M+1)/(KM)."""
    if round_no == 1:
        return Fraction(m + 1, k)
    return Fraction(2 ** (round_no - 1) * (m + 1), k * m)


def coding_columns(m: int, round_no: int) -> range:
    """1-based Cauchy columns a round codes with: 1, then (i-2)M+2..(i-1)M+1."""
    if round_no == 1:
        return range(1, 2)
    return range((round_no - 2) * m + 2, (round_no - 1) * m + 2)


def coefficient_table(x_points, y_points, q: int) -> list[list[int]]:
    """table[i][j] = (x_{i+1} - y_{j+1})^-1 mod q, from the announced points."""
    return [[pow((x - y) % q, -1, q) for y in y_points] for x in x_points]


def hypothesis_count(k: int, m: int, rounds: int) -> int:
    """Explanations of a transcript: K for round 1, times 2^(i-2)(M+1) per later round."""
    count = k
    for i in range(2, rounds + 1):
        count *= 2 ** (i - 2) * (m + 1)
    return count


def check_answer(round_no, blocks, packets, rows, coeffs, q: int, m: int) -> None:
    """Every packet equals the sum over its block of row * coefficient mod q."""
    k = len(rows)
    if len(packets) != packet_count(k, m, round_no):
        raise CheckFailed(
            f"round {round_no}: {len(packets)} packets,"
            f" expected {packet_count(k, m, round_no)}"
        )
    columns = coding_columns(m, round_no)
    expected = []
    for block in blocks:
        for col in columns:
            acc = [0] * len(rows[0])
            for idx in block:
                c = coeffs[idx - 1][col - 1]
                acc = [a + c * v for a, v in zip(acc, rows[idx - 1])]
            expected.append(tuple(a % q for a in acc))
    for pos, (got, want) in enumerate(zip(packets, expected)):
        if tuple(got) != want:
            raise CheckFailed(f"round {round_no}: packet {pos} differs from the reference sum")


def check_schedule(round_numbers, k: int, m: int) -> None:
    """A session runs rounds 1..l+1 in order, where K/(M+1) = 2^l."""
    rounds = (k // (m + 1)).bit_length()
    if list(round_numbers) != list(range(1, rounds + 1)):
        raise CheckFailed(f"rounds {list(round_numbers)}, expected 1..{rounds}")


def check_recovered(known: dict, rows) -> None:
    """After the last round the client knows all K messages, each equal to its row."""
    if sorted(known) != list(range(1, len(rows) + 1)):
        raise CheckFailed(f"client knows {len(known)} of {len(rows)} messages")
    for index, value in known.items():
        if tuple(value) != tuple(rows[index - 1]):
            raise CheckFailed(f"recovered message {index} differs from its database row")


def check_audit(posterior_rows, hypotheses: int, rates, ranks, k: int, m: int) -> None:
    """Posterior exactly 1/K everywhere, rate == capacity, rank == packet bound.

    rates: (round, measured rate, program's capacity) per round;
    ranks: (round, rank) per round, as the program reports them.
    """
    rounds = len(posterior_rows)
    if rounds != (k // (m + 1)).bit_length():
        raise CheckFailed(f"posterior has {rounds} rounds, expected l+1")
    uniform = Fraction(1, k)
    for j, row in enumerate(posterior_rows, start=1):
        if len(row) != k or any(p != uniform for p in row):
            raise CheckFailed(f"posterior round {j} is not exactly 1/{k}")
    if hypotheses != hypothesis_count(k, m, rounds):
        raise CheckFailed(
            f"{hypotheses} hypotheses, expected {hypothesis_count(k, m, rounds)}"
        )
    if [r for r, _, _ in rates] != list(range(1, rounds + 1)):
        raise CheckFailed("rates do not cover every round")
    for round_no, measured, program_capacity in rates:
        want = capacity(k, m, round_no)
        if measured != want or program_capacity != want:
            raise CheckFailed(
                f"round {round_no}: rate {measured}, capacity {program_capacity}, expected {want}"
            )
    if [r for r, _ in ranks] != list(range(1, rounds + 1)):
        raise CheckFailed("rank profile does not cover every round")
    for round_no, rank in ranks:
        if rank != packet_count(k, m, round_no):
            raise CheckFailed(
                f"round {round_no}: rank {rank}, bound {packet_count(k, m, round_no)}"
            )
