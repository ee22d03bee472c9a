"""Tests of the benchmark itself.

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tritave import COMMA, ONE, FreqRatio, verify  # noqa: E402


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_generators_are_deterministic_per_seed():
    catalogue = inputs.cli_catalogue()
    for make in (inputs.pitch_notes, inputs.walks,
                 lambda seed: inputs.cli_mix(seed, catalogue)):
        assert take(make(7), 40) == take(make(7), 40)
        assert take(make(7), 40) != take(make(8), 40)
    notes = take(inputs.pitch_notes(7), 2)
    assert [inputs.pitch_batch(n) for n in notes] == [inputs.pitch_batch(n) for n in notes]


# Convergents p/q of log2/log3 make 3**p and 2**q nearly equal.
CONVERGENTS = [(1, 2), (2, 3), (5, 8), (12, 19), (41, 65), (53, 84), (306, 485), (665, 1054)]


@pytest.mark.parametrize("p,q", CONVERGENTS)
def test_ordering_oracle_agrees_with_freqratio_near_convergents(p, q):
    near = [(-q, p), (q, -p), (-q + 1, p), (-q - 1, p), (-q, p + 1), (-q, p - 1), (0, 0)]
    for x, y in itertools.product(near, repeat=2):
        assert inputs.exact_less(x, y) == (FreqRatio(*x) < FreqRatio(*y)), (x, y)
    order = inputs.exact_order(near)
    assert [near[i] for i in order] == [(r.u, r.v) for r in sorted(FreqRatio(*n) for n in near)]


def test_ordering_oracle_on_the_comma():
    assert inputs.exact_less((ONE.u, ONE.v), (COMMA.u, COMMA.v))   # 3**12 > 2**19
    assert inputs.exact_less((0, 0), (-84, 53))                      # 3**53 > 2**84
    assert ONE < COMMA and ONE < FreqRatio(-84, 53)
    assert not inputs.exact_less((-84, 53), (-84, 53))


def test_self_times_plus_child_times_sum_to_span_time():
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert verify.verify_tables().passed
    finally:
        tracer.uninstall()
    d = tracer.to_dict()
    own = spans.self_times(d["start"], d["end"], d["parent"])
    children = [0] * len(own)
    for i, p in enumerate(d["parent"]):
        if p >= 0:
            children[p] += d["end"][i] - d["start"][i]
    assert len(own) > 1000
    for i, s in enumerate(own):
        assert s >= 0
        assert s + children[i] == d["end"][i] - d["start"][i]
    roots = sum(e - s for s, e, p in zip(d["start"], d["end"], d["parent"]) if p < 0)
    assert sum(own) == roots
    names = {d["names"][i] for i in d["name"]}
    assert {"verify.verify_tables", "tonnetz.reachable_note_classes",
            "harmony.classify", "ratios.FreqRatio.__lt__"} <= names


def test_uninstall_restores_every_binding():
    import tritave
    from tritave import harmony, tonnetz

    before = (harmony.classify, tonnetz.classify, tritave.classify, FreqRatio.__lt__,
              FreqRatio.from_fraction)
    tracer = spans.Tracer()
    tracer.install()
    assert harmony.classify is tonnetz.classify is tritave.classify is not before[0]
    assert FreqRatio.from_fraction(9, 8) == FreqRatio(-3, 2)
    tracer.uninstall()
    assert (harmony.classify, tonnetz.classify, tritave.classify, FreqRatio.__lt__,
            FreqRatio.from_fraction) == before


def test_wrong_golden_digest_is_a_failed_op():
    bench = workloads.HarmonyTables(ROOT, seed=1)
    tally = workloads.Tally(workloads.REFERENCE_MS)
    bench.run_op("pass", tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    bench.golden = dict(bench.golden, **{"table t1 csv": "0" * 64})
    bench.run_op("pass", tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "table t1 csv" in tally.messages[0]


@pytest.mark.parametrize("name", ["pitch-stream", "harmony-tables"])
def test_in_process_workloads_run_and_pass_their_checks(name):
    cls = workloads.WORKLOADS[name]
    bench = cls(ROOT, seed=3)
    tally = workloads.Tally(cls.NOMINAL_MS)
    for op in itertools.islice(bench.ops(), 8):
        assert bench.run_op(op, tally) > 0
    assert tally.attempted >= 8 and tally.failed == 0
    assert all(value > 0 for value, _, _ in bench.metrics(tally).values())


def test_cli_checks():
    golden = json.loads(workloads.GOLDEN.read_text(encoding="utf-8"))["cli"]
    case = inputs.CliCase("lookup", ("name", "3/2"))
    assert workloads.cli_problems(case, 0, "A'\n", [], golden) == []
    assert workloads.cli_problems(case, 0, "A\n", [], golden)
    bad = inputs.CliCase("malformed", ("plr", "A", "E", "A'", "PX"))
    assert workloads.cli_problems(bad, 2, "", ["error: x"], golden) == []
    assert len(workloads.cli_problems(bad, 2, "start\n", ["error: x"], golden)) == 1


def test_plr_defect_explains_only_stray_stdout():
    golden = json.loads(workloads.GOLDEN.read_text(encoding="utf-8"))["cli"]
    case = inputs.DEFECT_CLI_CASES["plr-partial-stdout"][0]
    assert case.key == "plr A E A' PX"
    explained = []
    for code, out, err in ((2, "A\nE\n", ["error: x"]),          # the seed defect
                           (1, "A\nE\n", ["error: x"]),          # wrong exit code
                           (1, "", ["error: x"]),
                           (2, "", ["Traceback", "ValueError"])):  # several stderr lines
        problems = workloads.cli_problems(case, code, out, err, golden)
        explained.append(workloads.plr_defect_explains(problems))
    assert explained == [True, False, False, False]


def test_walk_defects_explain_only_their_own_problems():
    bench = workloads.HarmonyTables(ROOT, seed=1)

    walk = inputs.Walk("456", 15, True, "PRL")
    root, triads, *rest = bench._walk_calls(walk)
    problems = bench._walk_problems(walk, root, triads, *rest)
    assert problems == ["involution: R twice moved root 15 to 3"]
    predicted = workloads._root_defect_problems(walk, triads)
    assert set(problems) <= predicted
    for extra in ("involution: R twice moved root 15 to 4", "classify gave other"):
        assert extra not in predicted

    walk = inputs.DEFECT_WALKS["progression-sharp-comment"][0]
    written = bench._walk_calls(walk)[4]
    assert workloads._sharp_defect_problems(written) == {
        "progression: line 1: expected 3 note names, found 1"}
    assert not workloads._sharp_defect_problems(
        [c for c in written if not workloads._names_a_sharp(c)])


def test_timed_inputs_avoid_the_known_defects_and_probes_find_them():
    catalogue = {c.key for c in inputs.cli_catalogue()}
    assert not catalogue & {c.key for cs in inputs.DEFECT_CLI_CASES.values() for c in cs}
    walks = take(inputs.walks(5), 400)
    assert all(0 <= w.root <= 11 for w in walks if w.system == "456")

    # A walk naming a sharp still draws every chord; only the text skips its lines.
    bench = workloads.HarmonyTables(ROOT, seed=1)
    walk = inputs.DEFECT_WALKS["progression-sharp-comment"][0]
    root, triads, backs, rows, written, text_chords, parsed, dot = bench._walk_calls(walk)
    assert len(text_chords) < len(written) and parsed == text_chords
    assert dot.count("[label=") >= len(written)
    assert bench._walk_problems(walk, root, triads, backs, rows, written, text_chords,
                                parsed, dot) == []

    probes = bench.defect_probes()
    assert {p.defect for p in probes} == set(inputs.DEFECT_WALKS)
    assert all(p.status in ("reproduces", "fixed") for p in probes)
    assert workloads.PitchStream(ROOT, seed=1).defect_probes() == []


def test_defect_probe_status():
    assert workloads.DefectProbe("d", "c", (), True).status == "fixed"
    assert workloads.DefectProbe("d", "c", ("x",), True).status == "reproduces"
    assert workloads.DefectProbe("d", "c", ("x",), False).status == "unexpected"


def test_every_valid_catalogue_case_has_a_golden():
    golden = json.loads(workloads.GOLDEN.read_text(encoding="utf-8"))["cli"]
    valid = {c.key for c in inputs.cli_catalogue() if c.group != "malformed"}
    assert valid == set(golden)
    commands = {c.command for c in inputs.cli_catalogue()}
    assert len(commands) == 12


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | encodings
import time:        50 |         50 |         _decimal
import time:        20 |         70 |       fractions
import time:       300 |        370 |     tritave.ratios
import time:        40 |         40 |       json
import time:       200 |        240 |     tritave.exports
import time:        10 |        620 |   tritave
import time:         5 |          5 |     argparse
import time:        30 |        655 | tritave.cli
error: a program line
"""


def test_importtime_parsing():
    rows, other = spans.parse_importtime(IMPORTTIME)
    assert other == ["error: a program line"]
    m = spans.import_metrics(rows)
    assert m["import.tritave_total_us"] == 655
    assert m["import.ratios.self_us"] == 300
    assert m["import.cli.self_us"] == 30
    assert m["import.stdlib.self_us"] == 50 + 20 + 40 + 5


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == [
        run.layer_unit(n) for n in run.per_layer_names()]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_cli_defect_probes_reproduce_or_are_fixed():
    probes = workloads.CliMix(ROOT, seed=1).defect_probes()
    assert len(probes) == len(inputs.DEFECT_CLI_CASES["plr-partial-stdout"])
    assert all(p.status in ("reproduces", "fixed") for p in probes)
