"""Outputs pinned byte for byte: the README's command examples and a digest
of many sessions' transcripts and recovered values.

A refactor that claims to move no byte is checked here rather than by hand.
The digest test drives Client and Server directly, so it depends on no
session helper that a refactor may rewrite.
"""

import hashlib
import random
import re
import shlex
from pathlib import Path

from opir.cli import main
from opir.errors import OpirError
from opir.field import next_prime
from opir.protocol import (
    Client,
    Database,
    ProtocolParams,
    Server,
    SideInformation,
    Transcript,
    TranscriptRound,
)
from opir.wire import transcript_to_bytes

from conftest import GRID

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> dict[str, tuple[list[str], list[str]]]:
    """Subcommand -> (argv, expected output lines) for each `$ opir` text block."""
    examples = {}
    for block in re.findall(r"```text\n(.*?)```", README.read_text(), re.S):
        command, *output = block.splitlines()
        assert command.startswith("$ opir ")
        argv = shlex.split(command[len("$ opir "):])
        examples[argv[0]] = (argv, output)
    return examples


def test_readme_examples_match_cli_output(tmp_path, monkeypatch, capsys):
    examples = readme_examples()
    assert sorted(examples) == ["audit", "capacity", "simulate"]
    monkeypatch.chdir(tmp_path)

    # The audit example reads the transcript the simulate example writes.
    argv, expected = examples["simulate"]
    assert main(argv + ["--transcript-out", "session.bin"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == expected[:-1] + ["transcript written to session.bin", expected[-1]]

    argv, expected = examples["audit"]
    assert argv[-1] == "session.bin"
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected

    argv, expected = examples["capacity"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected


# sha256 over every session below: GRID at the default and the smallest
# admissible field, 40 seeds, 3 symbols.  At the smallest field eight of
# them end in SingularSystem, so the failure path is pinned too.  A change
# that moves the digest moved a transcript byte, a recovered value or the
# round where a session fails.
SESSION_DIGEST = "620d093321ac54751398d884affbf0b5a26089cff93755266fa7e6e1597a6acf"
# The same over the deep schedules, 20 seeds: GRID's deepest schedule has
# 3 rounds, these have 4 and 5, where decoding reads the most history.  At
# the smallest field two of them end in SingularSystem.
DEEP_SHAPES = [(16, 1), (32, 1), (24, 2)]
DEEP_SESSION_DIGEST = "ed8ed2abfcd269a6433a728ee359328276e0bd771035d75b6f163559437967ea"
DIGEST_SEEDS = range(40)
DIGEST_SYMBOLS = 3


def session_bytes(params: ProtocolParams, seed: int) -> bytes:
    """One session with adaptive demands: its transcript, then its recovered
    values, then the class of the error that ended it early, if any."""
    rng = random.Random(seed)
    database = Database.random(params.k, params.symbols, params.q, rng)
    side = SideInformation.from_database(
        database, sorted(rng.sample(range(1, params.k + 1), params.m))
    )
    server = Server(database, params)
    client = Client(params, side, server.cauchy, seed=seed)
    rounds, recovered, error = [], [], b""
    try:
        for _ in range(params.max_rounds):
            demand = rng.choice([i for i in range(1, params.k + 1) if i not in client.known])
            query = client.build_query(demand)
            answer = server.answer(query)
            recovered.append(sorted(client.decode_answer(answer).items()))
            rounds.append(TranscriptRound(query, answer))
    except OpirError as exc:
        error = type(exc).__name__.encode()
    cauchy = server.cauchy
    transcript = Transcript(params, cauchy.x_points, cauchy.y_points, tuple(rounds))
    return transcript_to_bytes(transcript) + repr(recovered).encode() + error


def shapes_digest(shapes, seeds) -> str:
    """sha256 over session_bytes for every shape at its default and smallest field."""
    digest = hashlib.sha256()
    for k, m in shapes:
        default = ProtocolParams.create(k, m, symbols=DIGEST_SYMBOLS)
        smallest = next_prime(k + m * default.l + 1)
        for q in (default.q, smallest):
            params = ProtocolParams.create(k, m, q=q, symbols=DIGEST_SYMBOLS)
            for seed in seeds:
                digest.update(session_bytes(params, seed))
    return digest.hexdigest()


def test_session_digest_is_pinned():
    assert shapes_digest(GRID, DIGEST_SEEDS) == SESSION_DIGEST


def test_deep_session_digest_is_pinned():
    assert shapes_digest(DEEP_SHAPES, range(20)) == DEEP_SESSION_DIGEST
