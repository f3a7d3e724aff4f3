"""Seeded mutation fuzzing of every reader: only an OpirError may escape.

Honest transcripts, QUERY/ANSWER/HELLO/ERROR payloads, database files and
server config files are mutated (a bit flipped, a byte inserted or deleted, the tail cut off)
and fed to their readers.  A transcript that still reads goes through the
audit; a QUERY that still decodes goes to a server awaiting round 1; an
ANSWER that still decodes goes to a client awaiting that round.  Each test
draws from its own random.Random(seed), so a failure replays.
"""

import json
import random

import pytest

from opir import Client, OpirError, Server, SideInformation, wire
from opir.net import read_config
from opir.audit import measured_rate, posterior, rank_profile
from opir.protocol import session_cauchy
from conftest import GRID, random_session


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three random edits: flip a bit, insert a byte, delete a byte or
    cut the tail.  Flips, which keep every length field right, are the most
    likely, so most mutants get past the framing to the rules behind it."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choices(range(4), weights=(6, 1, 1, 1))[0]
        pos = rng.randrange(len(out) + 1)
        if kind == 0 and pos < len(out):
            out[pos] ^= 1 << rng.randrange(8)
        elif kind == 1:
            out[pos:pos] = bytes([rng.randrange(256)])
        elif kind == 2 and pos < len(out):
            del out[pos]
        else:
            del out[pos:]
    return bytes(out)


def survivors(data: bytes, read, rng: random.Random, count: int) -> int:
    """Feed `count` mutants of data to read; the number it accepted.  Any
    exception but an OpirError fails the test, naming the mutant."""
    accepted = 0
    for _ in range(count):
        mutant = mutate(data, rng)
        try:
            read(mutant)
        except OpirError:
            continue
        except Exception as exc:
            pytest.fail(f"{type(exc).__name__}: {exc} on mutant {mutant.hex()}")
        accepted += 1
    return accepted


def audit(data: bytes) -> None:
    transcript = wire.transcript_from_bytes(data)
    posterior(transcript)
    rank_profile(transcript)
    for round_no in range(1, len(transcript.rounds) + 1):
        measured_rate(transcript, round_no)


@pytest.mark.parametrize("k, m", GRID)
def test_mutated_transcripts(k, m):
    _, _, _, _, result = random_session(k, m, seed=k + m, symbols=2)
    rng = random.Random(f"fuzz-transcript:{k}:{m}")
    data = wire.transcript_to_bytes(result.transcript)
    accepted = survivors(data, audit, rng, 2000)
    assert 0 < accepted < 2000  # some mutants were refused, some audited


@pytest.mark.parametrize("k, m", GRID)
def test_mutated_payloads(k, m):
    params, _, _, _, result = random_session(k, m, seed=k + m, symbols=2)
    t = result.transcript
    rng = random.Random(f"fuzz-payload:{k}:{m}")
    hello = wire.encode_hello(wire.Hello.for_params(params, t.cauchy_x, t.cauchy_y))
    error = wire.encode_error(wire.ERR_MALFORMED_QUERY, "round 1 blocks do not partition")
    for data, read in [
        (hello, lambda p: wire.decode_hello(p).session()),
        (error, wire.decode_error),
        (wire.encode_query(t.rounds[-1].query), wire.decode_query),
        (wire.encode_answer(t.rounds[-1].answer), lambda p: wire.decode_answer(p, params.q)),
    ]:
        survivors(data, read, rng, 300)


@pytest.mark.parametrize("k, m", GRID)
def test_mutated_frames_reach_the_server_and_the_client(k, m):
    """A decoded mutant QUERY goes to a server awaiting round 1, a decoded
    mutant ANSWER to a client awaiting its round after honest earlier ones."""
    params, database, side_indices, demands, result = random_session(k, m, seed=k + m, symbols=2)
    rounds = result.transcript.rounds
    cauchy = session_cauchy(params)
    side = SideInformation.from_database(database, side_indices)
    rng = random.Random(f"fuzz-session:{k}:{m}")

    def answer(payload):
        Server(database, params, cauchy).answer(wire.decode_query(payload))

    def decode(r, payload):
        client = Client(params, side, cauchy, seed=k + m)
        for demand, earlier in zip(demands, rounds[:r]):
            client.build_query(demand)
            client.decode_answer(earlier.answer)
        assert client.build_query(demands[r]) == rounds[r].query
        client.decode_answer(wire.decode_answer(payload, params.q))

    survivors(wire.encode_query(rounds[0].query), answer, rng, 200)
    decoded = sum(
        survivors(wire.encode_answer(rnd.answer), lambda p: decode(r, p), rng, 100)
        for r, rnd in enumerate(rounds)
    )
    # Over a large field most flipped values stay residues, so some decode.
    assert decoded > 0 or params.q < 2**16


def test_mutated_database_files(tmp_path):
    rng = random.Random("fuzz-database")
    path = tmp_path / "db.bin"
    for k, m in GRID:
        _, database, _, _, _ = random_session(k, m, seed=k + m, symbols=2)
        wire.write_database(database, str(path))
        data = path.read_bytes()

        def read(mutant):
            path.write_bytes(mutant)
            wire.read_database(str(path))

        survivors(data, read, rng, 200)


def test_mutated_config_files(tmp_path):
    rng = random.Random("fuzz-config")
    path = tmp_path / "server.json"
    for k, m in GRID:
        config = {"k": k, "m": m, "q": 2147483647, "symbols": 2, "database": "db.bin"}
        data = json.dumps(config).encode()

        def read(mutant):
            path.write_bytes(mutant)
            read_config(str(path))

        survivors(data, read, rng, 200)
