"""Property test of the command line over one- and two-key overrides of the shipped configs.

Whatever the values, a run ends in exit 0 or 2, or in exit 1 with an
`error:` line on stderr; never in a traceback.  Monte Carlo records are
kept to about 10^5 samples so that the examples stay fast; a geometry
above the record or segment bound must be refused before any array
exists.
"""

from __future__ import annotations

import contextlib
import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bilodyne.cli import main
from bilodyne.config import _CHOICES, SCHEMA, parse_config
from bilodyne.errors import BilodyneError
from bilodyne.model import MAX_RECORD_SAMPLES, MAX_SEGMENT_SAMPLES

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ("default.cfg", "sensitivity.cfg", "squeezed.cfg")

# A simulate run starts from a 10^5-sample record (0.01 s at 10 MHz, 2 kHz
# rbw, 39 Welch segments); overrides may change it.
SMALL_RECORD = "\nmeasurement.duration_s = 0.01\nmeasurement.rbw_hz = 2e3\n"
# The Monte Carlo work a simulate example may ask for, in samples or
# counting windows, unless it is above the bound and so refused
SIMULATE_WORK = 2 * 10**5

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["0", "-0", "1", "-1", "0.5", "2", "8", "1e-12", "1e-3", "1e3", "1e6", "1e9", "1e12",
         "1e300", "-1e300", "nan", "inf", "-inf"]
    ),
    st.integers(-(10**20), 10**20).map(str),
)
WORDS = st.sampled_from(
    sorted({c for choices in _CHOICES.values() for c in choices} | {"true", "false", "yes", "off"})
)
ANY_VALUE = st.one_of(
    NUMBERS,
    WORDS,
    st.lists(NUMBERS, max_size=4).map(", ".join),
    st.text(st.characters(codec="ascii", exclude_categories=("Cc",)), max_size=12),
)


def _values(key: str):
    """Values of the key's own type, near its default or far from it, or any value at all."""
    converter, default = SCHEMA[key]
    if key in _CHOICES:
        typed = st.sampled_from(_CHOICES[key])
    elif converter is int:
        typed = st.one_of(st.integers(-2, 40), st.integers(default // 1000 - 1, default * 1000))
        typed = typed.map(str)
    elif converter is float:
        typed = st.one_of(
            st.floats(0.0, 5.0).map(lambda x: repr(default * x) if default else repr(x)),
            NUMBERS,
        )
    elif key == "scan.powers_nw":
        typed = st.lists(st.floats(1e-3, 1e3).map(repr), min_size=1, max_size=4).map(", ".join)
    else:
        typed = WORDS
    return st.one_of(typed, ANY_VALUE)


OVERRIDES = st.lists(st.sampled_from(sorted(SCHEMA)), min_size=1, max_size=2, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _values(key) for key in keys})
)
RUNS = st.sampled_from(
    [(scenario, name) for scenario in ("analytic", "table1", "squeezed-compare", "simulate")
     for name in SHIPPED]
)


def _config_text(scenario: str, name: str, overrides: dict) -> str:
    text = (CONFIGS / name).read_text()
    if scenario == "simulate":
        text += SMALL_RECORD
    return text + "".join(f"\n{key} = {value}" for key, value in overrides.items()) + "\n"


def _simulate_work(path: Path) -> float:
    """Samples of the record a simulate config asks for (and its counting windows), 0 if refused."""
    try:
        v = parse_config(path)
    except BilodyneError:
        return 0.0
    if v["simulate.scenario"] == "sensitivity":
        work = v["scan.duration_s"] * v["scan.sample_rate_hz"], float(v["scan.count_windows"])
    else:
        work = (v["measurement.duration_s"] * v["measurement.sample_rate_hz"],)
    # a record above the bound must be refused, so it costs nothing
    return max((w for w in work if math.isfinite(w) and w <= MAX_RECORD_SAMPLES), default=0.0)


def _run(scenario: str, text: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        if scenario == "simulate":
            assume(_simulate_work(path) <= SIMULATE_WORK)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([scenario, "--config", str(path), "--out", str(Path(tmp) / "out")])
    return code, err.getvalue()


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=RUNS, overrides=OVERRIDES)
def test_every_override_ends_in_an_exit_code(run, overrides):
    code, err = _run(run[0], _config_text(*run, overrides))
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")


# the group of record keys each run reads
GROUPS = {"analytic": "measurement", "squeezed-compare": "measurement", "table1": "scan"}


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    run=st.sampled_from(
        [("analytic", "default.cfg"), ("squeezed-compare", "squeezed.cfg"),
         ("table1", "sensitivity.cfg"), ("simulate", "default.cfg"),
         ("simulate", "sensitivity.cfg")]
    ),
    segment=st.booleans(),
    excess=st.floats(1.0001, 1e200),
)
def test_oversized_geometry_is_refused_before_any_array(run, segment, excess):
    scenario, name = run
    group = GROUPS.get(scenario) or ("scan" if name == "sensitivity.cfg" else "measurement")
    rate = 1e7
    if segment:  # rate / rbw above MAX_SEGMENT_SAMPLES in a short record
        key, value = f"{group}.rbw_hz", rate / (MAX_SEGMENT_SAMPLES * excess)
    else:  # duration * rate above MAX_RECORD_SAMPLES
        key, value = f"{group}.duration_s", MAX_RECORD_SAMPLES * excess / rate
    overrides = {f"{group}.sample_rate_hz": repr(rate), key: repr(value)}
    text = _config_text(scenario, name, overrides)
    tracemalloc.start()
    try:
        code, err = _run(scenario, text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err.startswith("error: ") and "MAX_" in err
    assert peak < 2**20


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    scenario=st.sampled_from(["analytic", "squeezed-compare"]),
    r=st.one_of(
        st.floats(0.0, 800.0),
        st.sampled_from([35.2, 35.3, 100.0, 177.0, 178.0, 200.0, 355.5, 355.6, 356.0, 711.0]),
    ),
)
def test_any_squeeze_ends_without_a_runtime_warning(scenario, r):
    # a squeeze that overflows the moment table must be refused, not
    # warned about on its way to another error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = _run(scenario, _config_text(scenario, "squeezed.cfg", {"squeeze.r": repr(r)}))
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ")
