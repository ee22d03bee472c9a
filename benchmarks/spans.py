"""Span tracing of tritave's layers from outside the package.

`Tracer.install` wraps every public function of each layer module, at
every module attribute that binds it (``tonnetz.classify`` as well as
``harmony.classify``), plus the ordering methods, ``as_fraction`` and
``from_fraction`` of ``FreqRatio``.  Each call records one span (name,
start, end, parent, status, size) in flat arrays; nothing is aggregated
while the traced code runs.  Nothing in the package is edited: the
wrappers are attributes set from here and removed by `uninstall`.

The module also parses ``python -X importtime`` output into the
``import.*`` layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array

LAYERS = ("ratios", "scales", "notation", "temperament", "harmony",
          "tonnetz", "exports", "verify", "cli")

#: Spans one traced process keeps; the traced run stops adding operations
#: once a tracer holds this many.
MAX_SPANS = 500_000

_FREQRATIO_METHODS = ("__lt__", "__le__", "__gt__", "__ge__", "as_fraction")
_COMPARE = {f"ratios.FreqRatio.{m}" for m in _FREQRATIO_METHODS[:4]}

# Size of one call, for the per-line and per-chord numbers.
_SIZES = {
    "exports.parse_progression": lambda args, result: len(result),
    "exports.emit_tonnetz_path": lambda args, result: len(args[0]),
}

# A CLI call fails by its exit code as well as by raising.
_FAILED_RESULT = {"cli.main": lambda result: result not in (0, None)}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [
        n for n in vars(module) if not n.startswith("_")
    ]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.status = array("b")
        self.size = array("i")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @property
    def full(self) -> bool:
        return len(self.name) >= MAX_SPANS

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func):
        """A function that records one span per call of ``func``."""
        nid = self._name_id(name)
        size_of = _SIZES.get(name)
        failed = _FAILED_RESULT.get(name)
        stack, now = self._stack, time.perf_counter_ns
        names, starts, ends = self.name, self.start, self.end
        parents, statuses, sizes = self.parent, self.status, self.size

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            statuses.append(1)
            sizes.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(now())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[idx] = now()
                stack.pop()
            if failed is None or not failed(result):
                statuses[idx] = 0
            if size_of is not None:
                sizes[idx] = size_of(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public callables of every loaded layer module."""
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "tritave" or n.startswith("tritave."))]
        for layer in LAYERS:
            module = sys.modules.get(f"tritave.{layer}")
            if module is None:
                continue
            for fname, func in _public_functions(module):
                traced = self.wrap(f"{layer}.{fname}", func)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is func:
                            self._set(holder, attr, traced)
        ratios = sys.modules["tritave.ratios"]
        cls = ratios.FreqRatio
        for method in _FREQRATIO_METHODS:
            func = cls.__dict__[method]
            self._set(cls, method, self.wrap(f"ratios.FreqRatio.{method}", func))
        from_fraction = cls.__dict__["from_fraction"].__func__
        self._set(cls, "from_fraction", classmethod(
            self.wrap("ratios.FreqRatio.from_fraction", from_fraction)))

    def _set(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def to_dict(self) -> dict:
        """The spans as flat columns (arrays, not copied)."""
        return {"names": self.names, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "status": self.status, "size": self.size}

    def dump(self, path) -> None:
        """Write the spans as one JSON object of columns, a column at a time."""
        with open(path, "w", encoding="ascii") as handle:
            for i, (key, column) in enumerate(self.to_dict().items()):
                values = column if isinstance(column, list) else column.tolist()
                handle.write(("{" if i == 0 else ",") + json.dumps(key) + ":")
                json.dump(values, handle, separators=(",", ":"))
            handle.write("}")


# --- analysis ---------------------------------------------------------------


def self_times(start, end, parent) -> array:
    """Span duration minus the time its child spans cover, per span.

    Spans of one thread nest, so the children of a span are disjoint and
    their durations simply add up.
    """
    covered = array("q", bytes(8 * len(start)))
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return array("q", (end[i] - start[i] - covered[i] for i in range(len(start))))


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


class SpanSet:
    """Spans from one or more traced processes, merged for analysis."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.duration = array("q")
        self.self_ns = array("q")
        self.status = array("b")
        self.size = array("i")

    def add(self, spans: dict) -> None:
        names = spans["names"]
        self.name.extend(names[i] for i in spans["name"])
        self.duration.extend(e - s for s, e in zip(spans["start"], spans["end"]))
        self.self_ns.extend(self_times(spans["start"], spans["end"], spans["parent"]))
        self.status.extend(spans["status"])
        self.size.extend(spans["size"])

    def _select(self, pred):
        return [i for i, n in enumerate(self.name) if pred(n)]

    def durations_us(self, name: str) -> list[float]:
        return [self.duration[i] / 1e3 for i in self._select(lambda n: n == name)]

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_ms and errors per layer, plus the per-call numbers."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            idx = self._select(lambda n: n.split(".", 1)[0] == layer)
            out[f"{layer}.calls"] = len(idx)
            out[f"{layer}.self_ms"] = sum(self.self_ns[i] for i in idx) / 1e6
            out[f"{layer}.errors"] = sum(self.status[i] for i in idx)
        compare = self._select(lambda n: n in _COMPARE)
        out["ratios.compare_calls"] = len(compare)
        out["ratios.compare_us_p50"] = _p50([self.duration[i] / 1e3 for i in compare])
        out["ratios.as_fraction_calls"] = len(self.durations_us("ratios.FreqRatio.as_fraction"))
        for name in ("scales.period_reduce", "scales.reduce_to_fundamental",
                     "notation.name_of", "notation.parse_note", "notation.pyth2_name_of",
                     "harmony.reduce_chord_to_domain", "harmony.purity",
                     "harmony.classify", "tonnetz.apply_plr", "exports.emit_table",
                     "cli.main"):
            out[f"{name}_us_p50"] = _p50(self.durations_us(name))
        for name in ("scales.pyth2_pyth3_differences", "tonnetz.reachable_note_classes"):
            out[f"{name}_ms_p50"] = _p50(self.durations_us(name)) / 1e3
        for name, unit in (("exports.parse_progression", "line"),
                           ("exports.emit_tonnetz_path", "chord")):
            idx = self._select(lambda n: n == name)
            count = sum(self.size[i] for i in idx)
            total = sum(self.duration[i] for i in idx)
            out[f"{name}_us_per_{unit}"] = total / 1e3 / count if count else 0.0
        return out


# --- -X importtime ----------------------------------------------------------


def parse_importtime(stderr: str) -> tuple[list[tuple[int, str, int, int]], list[str]]:
    """Split stderr into importtime rows (depth, module, self_us, cum_us) and other lines."""
    rows, other = [], []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            other.append(line)
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header row
        module = fields[2].rstrip()
        depth = (len(module) - len(module.lstrip(" ")) - 1) // 2
        rows.append((depth, module.strip(), int(fields[0]), int(fields[1])))
    return rows, other


def _is_tritave(module: str) -> bool:
    return module == "tritave" or module.startswith("tritave.")


def import_metrics(rows) -> dict[str, float]:
    """``import.*`` numbers from the rows of one process.

    Rows appear when an import finishes, so the rows nested in one import
    are the run of deeper rows just before it.  The top-level tritave
    imports are those not nested in another tritave import; stdlib time is
    the self time of every other module nested in a tritave import.
    """
    owner = [None] * len(rows)  # index of the tritave row a row is nested in
    for i, (depth, module, _, _) in enumerate(rows):
        if not _is_tritave(module):
            continue
        j = i - 1
        while j >= 0 and rows[j][0] > depth:
            if owner[j] is None:
                owner[j] = i
            j -= 1
    top = [i for i, r in enumerate(rows) if _is_tritave(r[1]) and owner[i] is None]
    out = {"import.tritave_total_us": float(sum(rows[i][3] for i in top))}
    selfs = {r[1]: r[2] for r in rows}
    for layer in LAYERS:
        out[f"import.{layer}.self_us"] = float(selfs.get(f"tritave.{layer}", 0))
    out["import.stdlib.self_us"] = float(sum(
        r[2] for i, r in enumerate(rows) if not _is_tritave(r[1]) and owner[i] is not None
    ))
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
