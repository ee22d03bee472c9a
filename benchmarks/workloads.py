"""The three workloads: set-up, one operation at a time, and the checks.

Each workload object is built by its set-up (imports, inputs, goldens),
yields a deterministic stream of operations from the seed, and runs one
operation at a time (`run_op`), timing only the calls into tritave and
checking every output afterwards.  A `Tally` collects samples and
failures; `metrics` turns it into the named end-to-end numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

#: Walks between two reproduction passes; about equal time for each kind.
WALKS_PER_PASS = 5


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def clocks() -> tuple[int, int]:
    """Wall-clock and this thread's CPU time, in ns."""
    return time.perf_counter_ns(), time.thread_time_ns()


def quantile(values, q: float) -> float:
    """The q-quantile by the nearest-rank rule; 0.0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def tail_mean(values, q: float) -> float:
    """A smoothed q-quantile: the mean of the values ranked within (1 - q) / 2 of q.

    For q = 0.9 that is the 85th to the 95th percentile.  A single order
    statistic far out in the tail moves with one noisy sample; the band
    averages a tenth of the samples (of a hundredth, for q = 0.99).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    half = (1 - q) / 2 * len(ordered)
    band = ordered[int(q * len(ordered) - half):int(q * len(ordered) + half) + 1]
    return sum(band) / len(band)


#: CPU ms of one `reference_work()`, and of one bare `python -c pass`
#: (CPython 3.11), on the quiet 2-vCPU virtual machine the benchmark was
#: written on.  They only fix the unit of the scaled CPU times (NOTES.md).
REFERENCE_MS = 1.0
BARE_START_MS = 80.0
#: Reference measurements in the moving median that scales an operation.
REFERENCE_WINDOW = 5


@dataclass(frozen=True)
class _Point:
    a: int
    b: int


def reference_work() -> int:
    """A fixed chunk of plain Python, none of it tritave's.

    Half an integer loop, half small objects (frozen dataclasses, a dict,
    a sort, Fractions, formatting): on a shared machine the loop alone
    slows less than tritave's object-heavy code when the neighbours are
    busy, the objects alone more.
    """
    total = 0
    for i in range(5000):
        total += i * i % 7
    points = [_Point(i % 17, i % 5) for i in range(150)]
    counts: dict = {}
    for p in points:
        counts[p] = counts.get(p, 0) + 1
    points.sort(key=lambda p: (p.b, p.a))
    total += sum(Fraction(p.a + 1, p.b + 2) for p in points[:60]).denominator
    return total + len("".join(f"{p.a}/{p.b}" for p in points))


def reference_cpu_ms() -> float:
    cpu = time.thread_time_ns()
    reference_work()
    return (time.thread_time_ns() - cpu) / 1e6


class Tally:
    """Samples, counts and failures of one run."""

    def __init__(self, nominal_ms: float) -> None:
        self.samples: dict[str, list[float]] = {}
        self.counts: Counter = Counter()
        self.props: dict[str, Counter] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.nominal_ms = nominal_ms
        self._refs: deque = deque(maxlen=REFERENCE_WINDOW)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def prop(self, name: str, key: str) -> None:
        self.props.setdefault(name, Counter())[key] += 1

    def reference(self, cpu_ms: float) -> None:
        """One measurement of the reference, for scaling what follows."""
        self.add("reference_cpu", cpu_ms)
        self._refs.append(cpu_ms)

    def time(self, name: str, wall_ns: int, cpu_ns: int) -> float:
        """One timed operation: wall-clock ms and scaled CPU ms; returns the latter."""
        scaled = cpu_ns / 1e6 * self.nominal_ms / statistics.median(self._refs)
        self.add(name, wall_ns / 1e6)
        self.add(f"{name}_scaled", scaled)
        return scaled

    def p50(self, name: str) -> float:
        return quantile(self.samples.get(name, []), 0.5)

    def check(self, problems: list[str]) -> None:
        """Count one operation, failed if any check reported a problem."""
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append("; ".join(dict.fromkeys(problems))[:300])


@dataclass(frozen=True)
class DefectProbe:
    """One fixed input that trips a known seed defect, run outside the timing.

    `explained` says whether the defect predicts every problem found.
    """

    defect: str
    case: str
    problems: tuple[str, ...]
    explained: bool

    @property
    def status(self) -> str:
        if not self.problems:
            return "fixed"
        return "reproduces" if self.explained else "unexpected"


# --- pitch-stream -----------------------------------------------------------

# (u, v) bounds of the octave system's fundamental interval, squared:
# kappa**2 / 2 < rep**2 <= 2 * kappa**2 with kappa = 3**12 / 2**19.
_OCTAVE_SQ_LO = (-39, 24)
_OCTAVE_SQ_HI = (-37, 24)

#: Batches (with their exact order) made during set-up; later ones are
#: made as the run goes, outside the timing.
SETUP_BATCHES = 4


class PitchStream:
    """Per-note naming, reduction and parsing, plus exact sorting of batches."""

    name = "pitch-stream"
    NOMINAL_MS = REFERENCE_MS
    PROBE_OPS = 16      # batches a set-up process also runs, for peak RSS

    def __init__(self, root: Path, seed: int) -> None:
        import tritave
        from tritave import notation, scales

        self.FreqRatio = tritave.FreqRatio
        self.notation, self.scales = notation, scales
        self.seed = seed
        stream = inputs.pitch_notes(seed)
        self.prepared = [inputs.pitch_batch(next(stream)) for _ in range(SETUP_BATCHES)]

    def defect_probes(self) -> list[DefectProbe]:
        return []       # no known seed defect on these inputs

    def ops(self):
        """The prepared batches, then batches made as the run goes (outside the timing)."""
        for i, notes in enumerate(inputs.pitch_notes(self.seed)):
            yield self.prepared[i] if i < len(self.prepared) else inputs.pitch_batch(notes)

    def run_op(self, batch: inputs.PitchBatch, tally: Tally) -> float:
        FreqRatio, notation, scales = self.FreqRatio, self.notation, self.scales
        pyth2 = scales.PYTH2
        tally.reference(reference_cpu_ms())
        busy = busy_wall = 0.0
        ratios = []
        for (u, v), text in zip(batch.notes, batch.texts):
            wall, cpu = clocks()
            ratio = FreqRatio(u, v)
            try:
                name = str(notation.name_of(ratio))
                back = notation.parse_note(name)
                reduced, power = scales.reduce_to_fundamental(ratio, pyth2)
                rep, shift = scales.period_reduce(reduced, pyth2)
                back2 = notation.parse_pyth2_note(notation.pyth2_name_of(reduced))
                entered = None
                if text is not None:
                    num, den = text.split("/")
                    entered = FreqRatio.from_fraction(int(num), int(den))
            except Exception as exc:  # any raise is a failed note
                raised = f"note ({u}, {v}): {type(exc).__name__}: {exc}"
            else:
                raised = ""
            wall_end, cpu_end = clocks()
            busy += tally.time("note", wall_end - wall, cpu_end - cpu)
            busy_wall += wall_end - wall
            ratios.append(ratio)
            tally.prop("abs_v", inputs.magnitude_bin(v))
            tally.check([raised] if raised else self._check_note(
                u, v, back, reduced, power, rep, shift, back2, text, entered))
        wall, cpu = clocks()
        ordered = sorted(ratios)
        wall_end, cpu_end = clocks()
        busy += tally.time("sort64", wall_end - wall, cpu_end - cpu)
        busy_wall += wall_end - wall
        want = [batch.notes[i] for i in batch.order]
        got = [(r.u, r.v) for r in ordered]
        tally.check([] if got == want else ["batch order differs from the exact oracle"])
        tally.counts["notes"] += len(batch.notes)
        tally.counts["busy_scaled_ms"] += busy
        tally.counts["busy_wall_ns"] += busy_wall
        return busy

    @staticmethod
    def _check_note(u, v, back, reduced, power, rep, shift, back2, text, entered):
        problems = []
        if (back.u, back.v) != (u, v):
            problems.append(f"name round trip of ({u}, {v}) gave ({back.u}, {back.v})")
        if (reduced.u, reduced.v) != (u - 19 * power, v + 12 * power) or not -5 <= reduced.v <= 6:
            problems.append(f"reduce_to_fundamental({u}, {v}) gave {reduced!r}, m={power}")
        sq = (2 * rep.u, 2 * rep.v)
        if ((rep.u + shift, rep.v) != (reduced.u, reduced.v)
                or not inputs.exact_less(_OCTAVE_SQ_LO, sq)
                or inputs.exact_less(_OCTAVE_SQ_HI, sq)):
            problems.append(f"period_reduce({reduced!r}) gave {rep!r}, shift={shift}")
        if (back2.u, back2.v) != (reduced.u, reduced.v):
            problems.append(f"pyth2 name round trip of {reduced!r} gave {back2!r}")
        if text is not None and (entered.u, entered.v) != (u, v):
            problems.append(f"from_fraction({text}) gave {entered!r}")
        return problems

    def metrics(self, tally: Tally) -> dict[str, tuple[float, str, int]]:
        n, notes = len(tally.samples["note"]), tally.counts["notes"]
        return {
            "pitch_notes_per_s": (notes / (tally.counts["busy_wall_ns"] / 1e9), "notes/s", n),
            "pitch_note_us_p50": (tally.p50("note") * 1e3, "us", n),
            "pitch_note_us_p99": (quantile(tally.samples["note"], 0.99) * 1e3, "us", n),
            "pitch_notes_per_scaled_cpu_s": (notes / (tally.counts["busy_scaled_ms"] / 1e3),
                                             "notes/s", n),
            "pitch_note_scaled_cpu_us_p50": (tally.p50("note_scaled") * 1e3, "us", n),
            "pitch_note_scaled_cpu_us_tail99": (
                tail_mean(tally.samples["note_scaled"], 0.99) * 1e3, "us", n),
        }

    @staticmethod
    def generic(m):
        return (m["pitch_note_scaled_cpu_us_p50"][0] / 1e3,
                m["pitch_note_scaled_cpu_us_tail99"][0] / 1e3, m["pitch_notes_per_scaled_cpu_s"][0])


# --- harmony-tables ---------------------------------------------------------


def _quality(system: str, notes) -> str:
    """Triad quality from the step intervals, computed without tritave."""
    if system == "234":
        (au, av), (bu, bv), (cu, cv) = ((n.u, n.v) for n in notes)
        steps = ((bu - au, bv - av), (cu - bu, cv - bv))
        fifth, fourth = (-1, 1), (2, -1)
        table = {(fifth, fourth): "major", (fourth, fifth): "minor",
                 (fifth, fifth): "augmented", (fourth, fourth): "diminished"}
    else:
        a, b, c = notes
        steps = (b - a, c - b)
        table = {(4, 3): "major", (3, 4): "minor", (4, 4): "augmented", (3, 3): "diminished"}
    return table.get(steps, "other")


def _in_tritave_above(note, root) -> bool:
    """root <= note < 3 * root, exactly."""
    n, r = (note.u, note.v), (root.u, root.v)
    return not inputs.exact_less(n, r) and inputs.exact_less(n, (r[0], r[1] + 1))


def _dot_problems(dot: str, chords, names) -> list[str]:
    lines = dot.splitlines()
    problems = []
    if lines[:1] != ["digraph tonnetz_path {"] or lines[-1:] != ["}"]:
        problems.append("DOT header or footer missing")
    nodes = [ln for ln in lines if ln.lstrip().startswith("chord") and "[label=" in ln]
    chain = [ln for ln in lines if "[penwidth=2]" in ln]
    if len(nodes) != len(chords) or len(chain) != len(chords) - 1:
        problems.append(f"DOT has {len(nodes)} chord nodes, {len(chain)} steps "
                        f"for {len(chords)} chords")
    for name in names:
        if f'  "{name}" [shape=circle' not in dot:
            problems.append(f"DOT lacks note {name}")
            break
    return problems


def reproduction() -> tuple[bool, dict[str, str]]:
    """verify_tables() and every emitter output, keyed like the goldens."""
    from tritave import exports, verify

    passed = verify.verify_tables().passed
    out = {}
    for which in exports.TABLE_IDS:
        for fmt in ("csv", "json"):
            out[f"table {which} {fmt}"] = exports.emit_table(which, fmt)
    for scale in exports.SCL_SCALES:
        out[f"scl {scale}"] = exports.emit_scl(scale)
    out["tonnetz-path sample"] = exports.emit_tonnetz_path(
        exports.parse_progression(exports.sample_progression_text()))
    return passed, out


def _involution_problem(move: str, root, back_root) -> str:
    return f"involution: {move} twice moved root {root} to {back_root}"


def _progression_text(chords) -> str:
    return "\n".join(" ".join(c.names()) for c in chords) + "\n"


def _names_a_sharp(chord) -> bool:
    return any("#" in name for name in chord.names())


def _root_defect_problems(walk: inputs.Walk, triads) -> set[str]:
    """What 456-root-normalisation predicts for a walk.

    R and L reduce a 4:5:6 root modulo 12, so on a root outside 0-11 the
    move twice returns the root modulo 12.
    """
    return {_involution_problem(move, t.root, t.root % 12)
            for move, t in zip(walk.moves, triads)
            if move in "RL" and not 0 <= t.root <= 11}


def _sharp_defect_problems(chords) -> set[str]:
    """What progression-sharp-comment predicts for the text of some chords.

    '#' starts a comment in progression text, so the first line naming a
    sharp is cut there and has too few names.
    """
    lines = [(k, line) for k, line in enumerate(_progression_text(chords).splitlines(), 1)
             if "#" in line]
    if not lines:
        return set()
    k, line = lines[0]
    found = len(line.split("#", 1)[0].split())
    return {f"progression: line {k}: expected 3 note names, found {found}"}


class HarmonyTables:
    """Reproduction passes alternating with seeded P/L/R walks."""

    name = "harmony-tables"
    NOMINAL_MS = REFERENCE_MS
    PROBE_OPS = 2 * (1 + WALKS_PER_PASS)

    def __init__(self, root: Path, seed: int) -> None:
        import tritave
        from tritave import exports, harmony, tonnetz

        self.tritave, self.exports = tritave, exports
        self.harmony, self.tonnetz = harmony, tonnetz
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["emitters"]
        self.seed = seed

    def defect_probes(self) -> list[DefectProbe]:
        """The fixed walks of `inputs.DEFECT_WALKS`, each checked in full."""
        probes = []
        for walk in inputs.DEFECT_WALKS["456-root-normalisation"]:
            root, triads, *rest = self._walk_calls(walk)
            problems = self._walk_problems(walk, root, triads, *rest)
            probes.append(DefectProbe("456-root-normalisation", str(walk), tuple(problems),
                                      set(problems) <= _root_defect_problems(walk, triads)))
        for walk in inputs.DEFECT_WALKS["progression-sharp-comment"]:
            written = self._walk_calls(walk)[4]
            try:
                parsed = self.exports.parse_progression(_progression_text(written))
            except ValueError as exc:
                problems = [f"progression: {exc}"]
            else:
                problems = [] if parsed == written else ["progression text did not round-trip"]
            probes.append(DefectProbe("progression-sharp-comment", str(walk), tuple(problems),
                                      set(problems) <= _sharp_defect_problems(written)))
        return probes

    def ops(self):
        walks = inputs.walks(self.seed)
        while True:
            yield "pass"
            for _ in range(WALKS_PER_PASS):
                yield next(walks)

    def run_op(self, op, tally: Tally) -> float:
        tally.reference(reference_cpu_ms())
        return self._pass(tally) if op == "pass" else self._walk(op, tally)

    def _pass(self, tally: Tally) -> float:
        wall, cpu = clocks()
        try:
            passed, out = reproduction()
        except Exception as exc:  # any raise is a failed pass
            tally.check([f"reproduction pass: {type(exc).__name__}: {exc}"])
            return 0.0
        wall_end, cpu_end = clocks()
        busy = tally.time("verify", wall_end - wall, cpu_end - cpu)
        problems = [] if passed else ["verify_tables() failed"]
        problems += [f"{key}: digest differs from golden" for key, text in out.items()
                     if digest(text) != self.golden.get(key)]
        tally.check(problems)
        return busy

    def _walk(self, walk: inputs.Walk, tally: Tally) -> float:
        is234 = walk.system == "234"
        wall, cpu = clocks()
        try:
            result = self._walk_calls(walk)
        except Exception as exc:  # any raise is a failed walk
            tally.check([f"{walk}: {type(exc).__name__}: {exc}"])
            return 0.0
        wall_end, cpu_end = clocks()
        busy = tally.time("walk", wall_end - wall, cpu_end - cpu)
        tally.counts["walk_chords"] += len(result[1])
        tally.counts["walk_wall_ns"] += wall_end - wall
        tally.counts["walk_scaled_ms"] += busy
        tally.prop("walk_system", walk.system)
        tally.prop("walk_length", inputs.walk_length_bin(walk))
        tally.check([f"{walk}: {p}" for p in self._walk_problems(walk, *result)])
        return busy

    def _walk_calls(self, walk: inputs.Walk):
        """Every tritave call of one walk; the checks come afterwards."""
        tritave, harmony, tonnetz = self.tritave, self.harmony, self.tonnetz
        is234 = walk.system == "234"
        if is234:
            root = tritave.FreqRatio(*walk.root)
            system = tonnetz.TONNETZ_234
        else:
            root, system = walk.root, tonnetz.TONNETZ_456
        make = tonnetz.major_triad if walk.major else tonnetz.minor_triad
        triad = make(root, system)
        triads, backs = [triad], []
        for move in walk.moves:
            image = tonnetz.apply_plr(triad, move)
            backs.append(tonnetz.apply_plr(image, move))
            triads.append(image)
            triad = image
        rows = []
        for t in triads:
            chord = t.chord()
            quality = harmony.classify(chord)
            report = harmony.purity(chord)
            reduced = harmony.reduce_chord_to_domain(chord, root) if is234 else None
            sequences = ()
            if quality is harmony.ChordQuality.MAJOR:
                sequences = (harmony.basic_sequence(chord), harmony.cadence_sequence(chord))
            rows.append((t, chord, quality, report, reduced, sequences))
        written = text_chords = parsed = dot = None
        if is234:
            written = [row[1] for row in rows
                       if all(-9 <= n.u <= 9 for n in row[1].notes)]
            # Lines naming a sharp trip a seed defect (DEFECT_WALKS), so
            # only the other chords go through the progression text.
            text_chords = [c for c in written if not _names_a_sharp(c)]
            try:
                parsed = self.exports.parse_progression(_progression_text(text_chords))
            except ValueError as exc:  # checked with the rest of the walk
                parsed = exc
            # Every chord as written, so the work does not depend on the parse.
            dot = self.exports.emit_tonnetz_path(written)
        return root, triads, backs, rows, written, text_chords, parsed, dot

    def _walk_problems(self, walk, root, triads, backs, rows, written, text_chords, parsed,
                       dot):
        problems = []
        for move, before, back in zip(walk.moves, triads, backs):
            if back != before:
                problems.append(_involution_problem(move, before.root, back.root))
        for t, chord, quality, report, reduced, sequences in rows:
            major = str(t.quality) == "major"
            want = _quality(walk.system, chord.notes)
            if want != ("major" if major else "minor") or str(quality) != want:
                problems.append(f"classify gave {quality}, steps say {want}")
            if report.ratio != inputs.PURITY_RATIO[(walk.system, major)]:
                problems.append(f"purity ratio {report.ratio}")
            if reduced is not None:
                if (not all(_in_tritave_above(n, root) for n in reduced.notes)
                        or sorted(n.u for n in reduced.notes) != sorted(n.u for n in chord.notes)):
                    problems.append(f"reduce_chord_to_domain gave {reduced.notes}")
            if sequences:
                basic, cadence = sequences
                problems += self._sequence_problems(walk.system, chord, basic, (-1, 1))
                problems += self._sequence_problems(walk.system, chord, cadence, (1, 2))
        if written is not None:
            if isinstance(parsed, ValueError):
                problems.append(f"progression: {parsed}")
            elif parsed != text_chords:
                problems.append("progression text did not round-trip")
            names = {name for c in written for name in c.names()}
            problems += _dot_problems(dot, written, names)
        return problems

    @staticmethod
    def _sequence_problems(system: str, tonic, seq, shifts) -> list[str]:
        """Each chord is the tonic moved `shift` steps round the circle, voiced near it.

        2:3:4: every note moves by an octave per step and then by whole
        tritaves into [root, 3 * root), which fixes it uniquely.  4:5:6:
        every pitch class moves by a fifth per step, in a close voicing.
        """
        if len(seq) != 4 or seq[0] != tonic or seq[3] != tonic:
            return ["sequence does not start and end on the tonic"]
        problems = []
        for chord, shift in zip(seq[1:3], shifts):
            if system == "234":
                root = tonic.notes[0]
                ok = (sorted(n.u for n in chord.notes) == sorted(n.u + shift for n in tonic.notes)
                      and all(_in_tritave_above(n, root) for n in chord.notes))
            else:
                ok = (sorted(n % 12 for n in chord.notes)
                      == sorted((n + 7 * shift) % 12 for n in tonic.notes)
                      and chord.notes[2] - chord.notes[0] < 12)
            if not ok:
                problems.append(f"sequence chord {shift:+d} is {chord.notes}")
        return problems

    def metrics(self, tally: Tally) -> dict[str, tuple[float, str, int]]:
        n, chords = len(tally.samples["verify"]), tally.counts["walk_chords"]
        walks = len(tally.samples.get("walk", []))
        return {
            "verify_ms_p50": (tally.p50("verify"), "ms", n),
            "verify_ms_p90": (quantile(tally.samples["verify"], 0.9), "ms", n),
            "walk_chords_per_s": (chords / (tally.counts["walk_wall_ns"] / 1e9), "chords/s", walks),
            "verify_scaled_cpu_ms_p50": (tally.p50("verify_scaled"), "ms", n),
            "verify_scaled_cpu_ms_tail90": (tail_mean(tally.samples["verify_scaled"], 0.9),
                                            "ms", n),
            "walk_chords_per_scaled_cpu_s": (chords / (tally.counts["walk_scaled_ms"] / 1e3),
                                             "chords/s", walks),
        }

    @staticmethod
    def generic(m):
        return (m["verify_scaled_cpu_ms_p50"][0], m["verify_scaled_cpu_ms_tail90"][0],
                m["walk_chords_per_scaled_cpu_s"][0])


# --- cli-mix ----------------------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    """Environment of every child: tritave from the checkout, bytecode kept warm.

    A private bytecode prefix inside the checkout also holds the stdlib's
    bytecode, so writing must be allowed or every spawn recompiles it.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class Child:
    wall_ns: int
    cpu_ns: int          # user + system time of the child
    code: int
    out: str
    err: str
    max_rss_kib: int


#: A child still running after this many seconds is killed (and fails its check).
CHILD_TIMEOUT_S = 60


def spawn(argv: list[str], env: dict[str, str], cwd: Path, stdin: bytes = b"") -> Child:
    """Run one child to completion, reading its output as it comes."""
    t0 = time.perf_counter_ns()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    try:
        proc.stdin.write(stdin)
    except BrokenPipeError:
        pass
    proc.stdin.close()
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        killed = False
        while sel.get_map():
            ready = sel.select(None if killed else max(0.0, deadline - time.monotonic()))
            if not ready:
                proc.kill()
                killed = True
            for key, _ in ready:
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[s]).decode("utf-8", "replace") for s in (proc.stdout, proc.stderr))
    cpu = round((usage.ru_utime + usage.ru_stime) * 1e9)
    return Child(wall, cpu, proc.returncode, out, err, usage.ru_maxrss)


_STDOUT_NOT_EMPTY = " stdout lines, want none"


def cli_problems(case: inputs.CliCase, code: int, out: str, err_lines: list[str],
                 golden: dict) -> list[str]:
    """The README contract for malformed argv; golden stdout for the rest."""
    if case.group == "malformed":
        problems = []
        if code != 2:
            problems.append(f"exit {code}, want 2")
        if out:
            problems.append(f"{len(out.splitlines())}{_STDOUT_NOT_EMPTY}")
        if len(err_lines) != 1:
            problems.append(f"{len(err_lines)} stderr lines, want 1")
        return [f"{case.key}: {p}" for p in problems]
    want = golden.get(case.key)
    if want is None:
        return [f"{case.key}: no golden output"]
    problems = []
    if code != 0:
        problems.append(f"exit {code}, want 0")
    if digest(out) != want:
        problems.append("stdout differs from golden")
    if err_lines:
        problems.append(f"stderr: {err_lines[0]}")
    return [f"{case.key}: {p}" for p in problems]


def plr_defect_explains(problems: list[str]) -> bool:
    """Whether plr-partial-stdout predicts every problem of a case.

    The defect only prints lines before exiting 2 with its one error
    line, so a wrong exit code or stderr is never explained by it.
    """
    return all(p.endswith(_STDOUT_NOT_EMPTY) for p in problems)


class CliMix:
    """Sequential fresh `python -m tritave` processes over a seeded argv mix."""

    name = "cli-mix"
    NOMINAL_MS = BARE_START_MS
    PROBE_OPS = 0       # peak RSS is that of the largest tritave child

    #: One bare `python -c pass` after this many tritave calls.
    BARE_EVERY = 2

    def __init__(self, root: Path, seed: int) -> None:
        import tritave.cli  # noqa: F401  (the set-up imports what the calls import)

        self.root, self.seed = root, seed
        self.env = child_env(root)
        self.golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["cli"]
        self.catalogue = inputs.cli_catalogue()
        sample = root / "src" / "tritave" / "data" / "sample_progression.txt"
        self.sample = sample.read_bytes()
        self.trace_dir = None       # set for the traced run
        self.spans = spans.SpanSet()
        self.imports: list[dict[str, float]] = []
        self.calls = 0

    def ops(self):
        return inputs.cli_mix(self.seed, self.catalogue)

    def defect_probes(self) -> list[DefectProbe]:
        """One child per case of `inputs.DEFECT_CLI_CASES`, checked like the mix."""
        probes = []
        for defect, cases in inputs.DEFECT_CLI_CASES.items():
            for case in cases:
                child = spawn([sys.executable, "-m", "tritave", *case.argv], self.env, self.root)
                problems = cli_problems(case, child.code, child.out,
                                        spans.parse_importtime(child.err)[1], self.golden)
                probes.append(DefectProbe(defect, case.key, tuple(problems),
                                          plr_defect_explains(problems)))
        return probes

    def run_op(self, case: inputs.CliCase, tally: Tally) -> float:
        if self.calls % self.BARE_EVERY == 0:
            bare = self.bare_python()
            tally.add("bare", bare.wall_ns / 1e6)
            tally.reference(bare.cpu_ns / 1e6)
        stdin = self.sample if case.stdin == "sample" else b""
        if self.trace_dir is None:
            argv = [sys.executable, "-m", "tritave", *case.argv]
        else:
            span_file = self.trace_dir / f"cli-{self.calls}.json"
            argv = [sys.executable, "-X", "importtime", str(HERE / "cli_runner.py"),
                    str(span_file), *case.argv]
        self.calls += 1
        child = spawn(argv, self.env, self.root, stdin)
        rows, err_lines = spans.parse_importtime(child.err)
        if self.trace_dir is not None:
            self.imports.append(spans.import_metrics(rows))
            self.spans.add(json.loads(span_file.read_text(encoding="ascii")))
        busy = tally.time("cli", child.wall_ns, child.cpu_ns)
        tally.add(f"cli_{case.group}_scaled", busy)
        tally.counts["peak_rss_kib"] = max(tally.counts["peak_rss_kib"], child.max_rss_kib)
        tally.prop("command", case.command)
        tally.prop("group", case.group)
        tally.check(cli_problems(case, child.code, child.out, err_lines, self.golden))
        return busy

    def bare_python(self) -> Child:
        child = spawn([sys.executable, "-c", "pass"], self.env, self.root)
        if child.code != 0:
            raise RuntimeError(f"bare python failed: {child.err.strip()}")
        return child

    def metrics(self, tally: Tally) -> dict[str, tuple[float, str, int]]:
        cli, n = tally.samples["cli"], len(tally.samples["cli"])
        bare = tally.samples["bare"]
        out = {
            "cli_ms_p50": (tally.p50("cli"), "ms", n),
            "cli_ms_p90": (quantile(cli, 0.9), "ms", n),
            "cli_overhead_ms_p50": (tally.p50("cli") - tally.p50("bare"), "ms", len(bare)),
            "cli_scaled_cpu_ms_p50": (tally.p50("cli_scaled"), "ms", n),
            "cli_scaled_cpu_ms_tail90": (tail_mean(tally.samples["cli_scaled"], 0.9), "ms", n),
            "cli_calls_per_scaled_cpu_s": (n / (sum(tally.samples["cli_scaled"]) / 1e3),
                                           "calls/s", n),
        }
        # Per group, so a change to the lookups and one to the heavier
        # commands can be told apart whatever their assumed shares.
        for group in inputs.GROUP_BLOCK:
            key = f"cli_{group}_scaled"
            out[f"{key}_cpu_ms_p50"] = (tally.p50(key), "ms", len(tally.samples.get(key, [])))
        return out

    @staticmethod
    def generic(m):
        return (m["cli_scaled_cpu_ms_p50"][0], m["cli_scaled_cpu_ms_tail90"][0],
                m["cli_calls_per_scaled_cpu_s"][0])


WORKLOADS = {w.name: w for w in (CliMix, PitchStream, HarmonyTables)}
