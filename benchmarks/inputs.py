"""Seeded inputs for the three workloads, and the oracles that check them.

Everything here is plain Python on integers and strings: it imports no
tritave module, so an input or an expected order never comes from the
code under test.  The same seed always gives the same stream.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

BATCH = 64
MAX_ABS_V = 10_000
TEXT_MAX_ABS_V = 40


# --- pitch-stream -----------------------------------------------------------


@dataclass(frozen=True)
class PitchBatch:
    notes: list[tuple[int, int]]      # (u, v): the note 2**u * 3**v
    texts: list[str | None]           # "N/D" for |v| <= 40, else None
    order: list[int]                  # indices of `notes` in ascending pitch


def fraction_text(u: int, v: int) -> str:
    num = 2 ** max(u, 0) * 3 ** max(v, 0)
    den = 2 ** max(-u, 0) * 3 ** max(-v, 0)
    return f"{num}/{den}"


def exact_order(notes: list[tuple[int, int]]) -> list[int]:
    """Ascending order of 2**u * 3**v by exact integer comparison.

    Every note is scaled by the same 2**a * 3**b so all become integers;
    scaling by a positive constant keeps the order.
    """
    a = max(0, -min(u for u, _ in notes))
    b = max(0, -min(v for _, v in notes))
    keys = [2 ** (u + a) * 3 ** (v + b) for u, v in notes]
    return sorted(range(len(notes)), key=keys.__getitem__)


def exact_less(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """2**xu * 3**xv < 2**yu * 3**yv, by cross multiplication."""
    du, dv = y[0] - x[0], y[1] - x[1]
    return 2 ** max(-du, 0) * 3 ** max(-dv, 0) < 2 ** max(du, 0) * 3 ** max(dv, 0)


def pitch_notes(seed: int):
    """Endless batches of notes: u uniform in [-9, 9], |v| log-uniform in [1, 1e4]."""
    rng = random.Random(f"pitch-stream:{seed}")
    while True:
        notes = []
        for _ in range(BATCH):
            u = rng.randint(-9, 9)
            magnitude = min(MAX_ABS_V, int(10 ** rng.uniform(0, math.log10(MAX_ABS_V))))
            notes.append((u, magnitude if rng.random() < 0.5 else -magnitude))
        yield notes


def pitch_batch(notes: list[tuple[int, int]]) -> PitchBatch:
    """A batch with its text fractions and its exact order."""
    texts = [fraction_text(u, v) if abs(v) <= TEXT_MAX_ABS_V else None for u, v in notes]
    return PitchBatch(notes, texts, exact_order(notes))


def magnitude_bin(v: int) -> str:
    """Decade of |v|: '1-9', '10-99', '100-999' or '1000-10000'."""
    digits = len(str(abs(v)))
    return "1000-10000" if digits >= 4 else f"{10 ** (digits - 1)}-{10 ** digits - 1}"


# --- harmony-tables -------------------------------------------------------


@dataclass(frozen=True)
class Walk:
    system: str                  # "234" or "456"
    root: tuple[int, int] | int  # (u, v) for 2:3:4, semitones from C for 4:5:6
    major: bool
    moves: str


def walks(seed: int):
    """Endless seeded P/L/R walks with move strings of length 1-16.

    The two systems take turns, so every run does the same share of each.
    2:3:4 roots keep the start chord nameable (u in [-8, 7]); 4:5:6 roots
    are the pitch classes 0-11, since from a root outside them R and L
    trip a seed defect (`DEFECT_WALKS`).
    """
    rng = random.Random(f"harmony-tables:{seed}")
    for system in itertools.cycle(("234", "456")):
        if system == "234":
            root = (rng.randint(-8, 7), rng.randint(-2, 2))
        else:
            root = rng.randint(0, 11)
        moves = "".join(rng.choice("PLR") for _ in range(rng.randint(1, 16)))
        yield Walk(system, root, rng.random() < 0.5, moves)


#: Fixed walks that trip each known seed defect of the walks.  They run
#: once per run, outside the timed operations (NOTES.md, "Seed defects").
DEFECT_WALKS = {
    # R and L reduce a 4:5:6 root modulo 12, so from a root outside 0-11
    # the move twice does not come back.
    "456-root-normalisation": [Walk("456", 15, True, "PRL"), Walk("456", -5, False, "L"),
                               Walk("456", 20, True, "RL")],
    # '#' starts a comment in progression text, so a line naming a sharp
    # is cut there (after one name here, after two in the second walk).
    "progression-sharp-comment": [Walk("234", (-7, 0), True, "P"),
                                  Walk("234", (-5, 0), True, "P")],
}


def walk_length_bin(walk: Walk) -> str:
    lo = (len(walk.moves) - 1) // 4 * 4 + 1
    return f"{lo}-{lo + 3}"


#: Coprime harmonics of the classified triads, from the paper's purity tables.
PURITY_RATIO = {
    ("234", True): (2, 3, 4), ("234", False): (3, 4, 6),
    ("456", True): (4, 5, 6), ("456", False): (10, 12, 15),
}


# --- cli-mix ----------------------------------------------------------------


@dataclass(frozen=True)
class CliCase:
    group: str                   # "lookup", "other" or "malformed"
    argv: tuple[str, ...]
    stdin: str = ""              # "sample" feeds the bundled progression

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def command(self) -> str:
        return self.argv[0]


_NAME_RATIOS = ["3/2", "4/3", "9/8", "1", "2", "3", "27/16", "256/243", "729/512",
                "16/9", "1/81"] + [fraction_text(u, v) for u in (-9, -4, 0, 5, 9)
                                   for v in (-7, -2, 3, 8)]
_REDUCE_RATIOS = ["531441/524288", "3/2", "1/81", "2", "4096/6561",
                  fraction_text(-30, 19), fraction_text(40, -25), fraction_text(-9, 0)]
_NOTES = ["A", "C^", "Bvv", "F#,", "G'", "Bb'v", "D", "E^^", "Ab", "C#,"]
# Major and minor 2:3:4 triads (root, root * 3/2 or 4/3, root * 2).
_TRIADS_234 = [("A", "E", "A'"), ("A", "D", "A'"), ("G,", "D", "G"), ("G,", "C", "G"),
               ("B", "E", "B'"), ("F,", "Bb", "F"), ("D", "A'", "G,^"), ("C", "F", "F,^")]
_CHORDS_234 = _TRIADS_234 + [("A", "E", "B'"), ("A", "D", "G")]
_MAJOR_234 = [("A", "E", "A'"), ("D", "A'", "G,^"), ("Bb", "F", "Bb'")]
_TRIADS_456 = [("C", "E", "G"), ("A", "C'", "E'"), ("D", "F#", "A"), ("Eb", "G", "Bb")]
_CHORDS_456 = _TRIADS_456 + [("C", "E", "G#"), ("B", "D", "F")]
_MAJOR_456 = [("C", "E", "G"), ("D", "F#", "A"), ("F", "A", "C'")]
_MOVES = ["P", "R", "L", "PRL", "RLRL", "LPRPL", "RRLLPP"]


def cli_catalogue() -> list[CliCase]:
    """Every argv the cli-mix draws from; its golden outputs are committed."""
    lookup = [CliCase("lookup", ("name", t)) for t in _NAME_RATIOS + _NOTES]
    lookup += [CliCase("lookup", ("reduce", t)) for t in _REDUCE_RATIOS + _NOTES[:4]]
    lookup += [CliCase("lookup", ("reduce", t, "--system", "pyth2"))
               for t in ("3/2", "531441/524288", "1/81", "G'")]
    for i, chord in enumerate(_TRIADS_234):
        lookup.append(CliCase("lookup", ("plr", *chord, _MOVES[i % len(_MOVES)])))
        lookup.append(CliCase("lookup", ("plr", *chord, _MOVES[(i + 3) % len(_MOVES)])))
    for i, chord in enumerate(_TRIADS_456):
        lookup.append(CliCase("lookup", ("plr", *chord, _MOVES[i], "--system", "456")))
    lookup += [CliCase("lookup", ("purity", *c)) for c in _CHORDS_234]
    lookup += [CliCase("lookup", ("purity", *c, "--system", "456")) for c in _CHORDS_456]
    for chord in _MAJOR_234:
        lookup += [CliCase("lookup", ("sequence", *chord)),
                   CliCase("lookup", ("sequence", *chord, "--cadence"))]
    for chord in _MAJOR_456:
        lookup += [CliCase("lookup", ("sequence", *chord, "--system", "456")),
                   CliCase("lookup", ("sequence", *chord, "--cadence", "--system", "456"))]

    other = [CliCase("other", ("verify",))]
    other += [CliCase("other", ("table", t, "--format", f))
              for t in ("t1", "t2", "diff", "plr456", "plr234", "purity234", "purity456")
              for f in ("csv", "json")]
    for system in ("pyth3", "pyth2", "edt19", "edo12"):
        other += [CliCase("other", ("scale", system)),
                  CliCase("other", ("scale", system, "--scl"))]
    other += [CliCase("other", ("scale", "pyth3", "--format", "json")),
              CliCase("other", ("scale", "pyth2", "--format", "csv"))]
    other += [CliCase("other", ("keyboard",)),
              CliCase("other", ("keyboard", "--lo", "48", "--hi", "72")),
              CliCase("other", ("keyboard", "--lo", "0", "--hi", "127"))]
    other += [CliCase("other", ("reach",)),
              CliCase("other", ("reach", "--k", "12")),
              CliCase("other", ("reach", "--system", "456", "--k", "3")),
              CliCase("other", ("reach", "--start", "C", "--k", "4"))]
    other += [CliCase("other", ("convergents",)),
              CliCase("other", ("convergents", "-n", "12")),
              CliCase("other", ("convergents", "-n", "20"))]
    other += [CliCase("other", ("tonnetz-path", "-"), stdin="sample"),
              CliCase("other", ("tonnetz-path", "-", "--dot"), stdin="sample")]

    malformed = [CliCase("malformed", ("name", t)) for t in ("Q", "H#", "A^v")]
    malformed += [CliCase("malformed", ("reduce", "X'"))]
    malformed += [CliCase("malformed", ("name", t)) for t in ("5/4", "10/3", "7")]
    malformed += [CliCase("malformed", ("purity", "A", "E", "Q"))]
    return lookup + other + malformed


#: Malformed argv that trip a known seed defect: `plr` prints the start
#: chord and the moves before a bad move letter, then exits 2.  They run
#: once per run, outside the timed mix (NOTES.md, "Seed defects").
DEFECT_CLI_CASES = {
    "plr-partial-stdout": [CliCase("malformed", argv)
                           for argv in (("plr", "A", "E", "A'", "PX"),
                                        ("plr", "A", "D", "A'", "Q"),
                                        ("plr", "C", "E", "G", "PRZ", "--system", "456"))],
}


#: Calls per group in every block of 20: mostly the short lookups of interactive use.
GROUP_BLOCK = {"lookup": 15, "other": 4, "malformed": 1}


def _shuffled_cycle(rng: random.Random, items: list):
    """The items over and over, each round in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def cli_mix(seed: int, catalogue: list[CliCase]):
    """Endless seeded stream of catalogue cases.

    Every block of 20 calls holds the groups in the shares of `GROUP_BLOCK`,
    in a seeded order.  Within a group the subcommands take turns, and each
    subcommand goes through all its cases before repeating one, each round
    in a seeded order; so every run has nearly the same mix.
    """
    rng = random.Random(f"cli-mix:{seed}")
    by_group: dict[str, dict[str, list[CliCase]]] = {}
    for case in catalogue:
        by_group.setdefault(case.group, {}).setdefault(case.command, []).append(case)
    commands = {g: _shuffled_cycle(rng, sorted(cmds)) for g, cmds in by_group.items()}
    cases = {(g, c): _shuffled_cycle(rng, items)
             for g, cmds in by_group.items() for c, items in cmds.items()}
    block = [g for g, n in GROUP_BLOCK.items() for _ in range(n)]
    while True:
        rng.shuffle(block)
        for group in block:
            yield next(cases[group, next(commands[group])])


def shares(counter: Counter) -> dict[str, float]:
    total = sum(counter.values())
    return {k: round(v / total, 4) for k, v in sorted(counter.items())} if total else {}
