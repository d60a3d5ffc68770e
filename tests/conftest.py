import pathlib
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ttscheck.model import load_tts, parse_tts

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


@pytest.fixture(scope="session")
def airlock():
    return load_tts(MODELS / "airlock.tts")


@pytest.fixture(scope="session")
def relay():
    return load_tts(MODELS / "relay.tts")


@pytest.fixture(scope="session")
def chain():
    return load_tts(MODELS / "chain.tts")


@pytest.fixture(scope="session")
def models_dir():
    return MODELS


def n_door_airlock_tts(n: int) -> str:
    """`.tts` text of the generalized airlock with n doors; door i+1 preempts
    door i."""
    lines = ["places Idle=1 Refresh "
             + " ".join(f"D{i}isOpen" for i in range(1, n + 1))]
    lines.append("vars " + " ".join(f"req{i}=false" for i in range(1, n + 1)))
    for i in range(1, n + 1):
        lines.append(f"trans Button{i} pre {{!req{i}}} act {{req{i} := true}}")
    anyreq = " | ".join(f"req{i}" for i in range(1, n + 1))
    lines.append(f"trans Shutdown pre {{!({anyreq})}} consume {{Idle}}")
    for i in range(1, n + 1):
        lines.append(f"trans Open{i} pre {{req{i}}} in [0,0]"
                     f" consume {{Idle}} produce {{D{i}isOpen}}")
        lines.append(f"trans Close{i} in [4,4] consume {{D{i}isOpen}}"
                     f" produce {{Refresh}} act {{req{i} := false}}")
    lines.append("trans Ventil in [6,6] consume {Refresh} produce {Idle}")
    for i in range(1, n):
        lines.append(f"prio Open{i + 1} > Open{i}")
    return "\n".join(lines)


def n_door_airlock(n: int):
    """Generalized airlock with n doors; door i+1 preempts door i."""
    return parse_tts(n_door_airlock_tts(n), name=f"airlock{n}")


def xcheck_catalog(model_name: str) -> list:
    """The eight catalog shapes instantiated per model fixture."""
    if model_name == "airlock":
        return [
            "present Ventil after (Open1 | Open2) within [0,10]",
            "present first (Open1 | Open2) before Ventil within ]0,10]",
            "present Refresh lasting 6",
            "absent (Open1 | Open2) after (Close1 | Close2) for interval [0,5]",
            "absent Open1 before Close1 for duration 3",
            "Button2 leadsto first Open2 within [0,10]",
            "Button2 leadsto first Open2 within [0,10] before Shutdown",
            "Button1 leadsto first Open1 within [0,10] after Shutdown",
        ]
    if model_name == "relay":
        return [
            "present Bump after Load within [0,2]",
            "present first Load before Decay within ]0,6]",
            "present (lvl = 2) lasting 2",
            "absent Bump after Decay for interval [0,1[",
            "absent Load before Flush for duration 2",
            "Load leadsto first Flush within [1,2]",
            "Load leadsto first Bump within [0,1] before Decay",
            "Flush leadsto first Load within [1,3] after Decay",
        ]
    return [
        "present Step2 after Step1 within [0,0]",
        "present first Step1 before Exit within [6,10]",
        "present A3 lasting 6",
        "absent Exit after Step3 for interval [0,6[",
        "absent Step3 before Reset for duration 3",
        "Step1 leadsto first Step2 within [0,0]",
        "Step2 leadsto first Reset within [4,7] before Exit",
        "Step3 leadsto first Exit within ]0,8] after Step2",
    ]


# Random small nets, for hypothesis tests

@st.composite
def bounds(draw):
    lo = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
    lo_strict = draw(st.booleans())
    if draw(st.integers(0, 4)) == 0:
        return f"{'[]'[lo_strict]}{lo},oo["
    hi = lo + Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
    hi_strict = draw(st.booleans())
    if hi == lo:
        lo_strict = hi_strict = False
    return f"{'[]'[lo_strict]}{lo},{hi}{'[]'[not hi_strict]}"


@st.composite
def nets(draw):
    """Token-conserving nets: each transition moves one token, optionally
    under a read arc, so place capacities are never exceeded."""
    places = [f"P{i}" for i in range(draw(st.integers(2, 3)))]
    lines = ["places " + " ".join(f"{p}=1/3" for p in places)]
    n = draw(st.integers(2, 5))
    for i in range(n):
        line = f"trans t{i} in {draw(bounds())}"
        line += f" consume {{{draw(st.sampled_from(places))}}}"
        line += f" produce {{{draw(st.sampled_from(places))}}}"
        if draw(st.booleans()):
            line += f" read {{{draw(st.sampled_from(places))}}}"
        lines.append(line)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j) in draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True)):
        lines.append(f"prio t{i} > t{j}")
    return "\n".join(lines)


@st.composite
def guarded_nets(draw):
    """`nets()` with an optional place guard, `pre {Pk}` or `pre {!Pk}`, on
    each transition.  A guard may read a place that another firing consumes,
    so a transition can be disabled before a firing and enabled in its
    intermediate marking."""
    lines = draw(nets()).split("\n")
    places = [p.split("=")[0] for p in lines[0].split()[1:]]
    for k, line in enumerate(lines):
        if line.startswith("trans ") and draw(st.booleans()):
            neg = "!" if draw(st.booleans()) else ""
            lines[k] = f"{line} pre {{{neg}{draw(st.sampled_from(places))}}}"
    return "\n".join(lines)
