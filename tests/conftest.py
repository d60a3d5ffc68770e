import pathlib

import pytest

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
