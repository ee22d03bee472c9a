"""Output bytes pinned to the benchmark's committed digests.

``benchmarks/golden.json`` holds the SHA-256 of the stdout of every valid
benchmark CLI call and of every emitter output.  Running the same calls in
process here turns any byte change in CLI or emitter output into a tier-1
failure.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from tritave import cli, exports

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "benchmarks" / "golden.json")
    .read_text(encoding="utf-8")
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN["cli"]))
def test_cli_stdout_matches_golden(key, monkeypatch):
    stdin = exports.sample_progression_text() if key.startswith("tonnetz-path -") else ""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(key.split(" "))
    assert code == 0
    assert digest(out.getvalue()) == GOLDEN["cli"][key]


def _emit(key: str) -> str:
    kind, *rest = key.split(" ")
    if kind == "table":
        return exports.emit_table(*rest)
    if kind == "scl":
        return exports.emit_scl(*rest)
    return exports.emit_tonnetz_path(
        exports.parse_progression(exports.sample_progression_text())
    )


@pytest.mark.parametrize("key", sorted(GOLDEN["emitters"]))
def test_emitter_output_matches_golden(key):
    assert digest(_emit(key)) == GOLDEN["emitters"][key]


def test_golden_covers_every_table_and_scale():
    keys = set(GOLDEN["emitters"])
    for which in exports.TABLE_IDS:
        assert {f"table {which} csv", f"table {which} json"} <= keys
    for scale in exports.SCL_SCALES:
        assert f"scl {scale}" in keys
    assert len(GOLDEN["cli"]) == 141 and len(keys) == 19
