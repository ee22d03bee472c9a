"""Tritave-based Pythagorean tuning, 2:3:4 harmony and Tonnetz toolkit.

The octave-generated scale of 19 notes per tritave behaves like a mirror
image of the familiar fifth-generated scale of 12 notes per octave: the
Pythagorean comma bounds both, each can be played on a standard keyboard,
and the 2:3:4 chord becomes a proper triad with its own dominants,
inversions, lattice and P/L/R moves.  Everything numeric here is exact
3-smooth arithmetic; floats only appear as cents.
"""

from .ratios import (
    COMMA,
    FIFTH,
    FOURTH,
    OCTAVE,
    ONE,
    TRITAVE,
    Cents,
    FreqRatio,
    NotThreeSmoothError,
    cents,
)
from .scales import (
    EDO12,
    EDT19,
    PYTH2,
    PYTH3,
    ScaleRow,
    ScaleSystem,
    deviation_table,
    fundamental_note,
    harmonic_degree,
    harmonic_to_scale_degree,
    note_at_scale_degree,
    period_reduce,
    pyth2_pyth3_differences,
    reduce_to_fundamental,
    scale_to_harmonic,
)
from .notation import (
    KeyLabel,
    NoteName,
    edo12_name,
    key_color_by_harmonic_degree,
    keyboard_labels,
    name_of,
    parse_edo12_note,
    parse_note,
    parse_pyth2_note,
    pyth2_name_of,
)

# The names of these modules, and the modules themselves, are bound on
# first use through `__getattr__` (PEP 562), so ``import tritave`` and a CLI
# call load only the modules they run.
_LAZY = {
    "temperament": ("Convergent", "cf_coefficients", "comma_for", "convergents"),
    "harmony": ("Chord", "ChordQuality", "PurityReport", "basic_sequence", "cadence_sequence",
                "chord_234", "chord_456", "classify", "invert", "major_triad_234",
                "minor_triad_234", "purity", "reduce_chord_to_domain", "shift_in_circle"),
    "tonnetz": ("TONNETZ_234", "TONNETZ_456", "ReachLevel", "TonnetzSystem", "Triad",
                "apply_plr", "apply_plr_sequence", "lattice_coordinates", "major_triad",
                "minor_triad", "note_class", "note_coordinates", "reachable_note_classes",
                "triad_from_chord"),
    "exports": ("ProgressionError", "emit_scl", "emit_table", "emit_tonnetz_path",
                "parse_progression", "parse_scl", "sample_progression_text"),
    "verify": ("VerifyReport", "verify_tables"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")} | set(_LAZY) | set(_HOME)
)


def __getattr__(name: str):
    module = _HOME.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # With a fromlist, __import__ returns the submodule itself; it spares
    # loading `importlib` for `importlib.import_module`.
    value = __import__(f"{__name__}.{module}", fromlist=[name])
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
