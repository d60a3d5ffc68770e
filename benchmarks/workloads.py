"""Inputs and expected outcomes of the benchmark workloads.

Every input is generated here: the n-door airlock net, the relay and chain
nets, and the pattern files.  Nothing is read from the repository's `models/`
or `tests/`, so the inputs stay fixed while the program under test changes.

The workload seed sets only the order of the patterns inside each pattern
file and the base seed of `xcheck`.  Verdicts do not depend on either, so the
expected tables below hold for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Runs per model in the `xcheck` workload: 3 models x 8 patterns x 200 runs
# gives 4800 simulations over 600 distinct random runs.
XCHECK_RUNS = 200


def airlock_tts(n: int) -> str:
    """Airlock with n doors; door i+1 preempts door i.

    Button_i requests door i.  Open_i fires at once when door i is requested
    and the lock is Idle; Close_i follows exactly 4 later and starts a
    ventilation (Refresh) of exactly 6 before the lock is Idle again.
    Shutdown, possible only when no door is requested, takes Idle for good.
    """
    lines = [f"# {n}-door airlock",
             "places Idle=1 Refresh " + " ".join(f"D{i}isOpen" for i in range(1, n + 1)),
             "vars " + " ".join(f"req{i}=false" for i in range(1, n + 1))]
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
    return "\n".join(lines) + "\n"


RELAY_TTS = """\
# Cyclic relay: a load/flush loop with a level counter that bumps while hot
# and decays on a fixed timer with priority over bumping.  Never deadlocks.
places Src=1 Mid
vars hot=false lvl:0..2=0
trans Load in [1,3] consume {Src} produce {Mid} act {hot := true}
trans Flush in [1,2] consume {Mid} produce {Src} act {hot := false}
trans Bump pre {hot & lvl < 2} in [0,2] read {Mid} act {lvl := lvl + 1}
trans Decay pre {lvl > 0} in [2,2] act {lvl := lvl - 1}
prio Decay > Bump
"""

CHAIN_TTS = """\
# Finite chain with strict bounds, a forced zero-delay hop (Step2) producing
# simultaneous events, a read-arc timer, and a guaranteed deadlock after Exit.
places A0=1 A1 A2 A3
vars won=false
trans Step1 in ]0,2] consume {A0} produce {A1}
trans Step2 in [0,0] consume {A1} produce {A2}
trans Step3 in [1,4[ consume {A2} produce {A3}
trans Reset pre {!won} in [3,3] read {A3} act {won := true}
trans Exit in [6,8] consume {A3}
"""


def _any(name: str, n: int) -> str:
    return "(" + " | ".join(f"{name}{i}" for i in range(1, n + 1)) + ")"


# Expected verdicts, keyed by pattern text.  On any airlock the first Open
# takes Idle, so no other door opens until its Close (exactly 4 later) and
# the Ventil that follows it (exactly 6 after that) give Idle back.
def _ventil_within(n: int, hi: int) -> str:
    return f"present Ventil after {_any('Open', n)} within [0,{hi}]"


def _first_open(n: int) -> str:
    return f"present first {_any('Open', n)} before Ventil within ]0,10]"


def _quiet_after_close(n: int) -> str:
    return f"absent {_any('Open', n)} after {_any('Close', n)} for interval [0,5]"


OPEN1_NOT_BEFORE_CLOSE1 = "absent Open1 before Close1 for duration 3"

SCALE_PASS = {
    # the first Ventil comes exactly 10 after the first Open
    _ventil_within(5, 10): "pass",
    # a Ventil needs a Refresh, hence a Close, hence an Open exactly 10 earlier
    _first_open(5): "pass",
    # after a Close, Idle is back only 6 later, so no door can open in [0,5]
    _quiet_after_close(5): "pass",
    # the Open1 behind the first Close1 is exactly 4 earlier; door 1 holds
    # Idle in between, so no Open1 falls within 3 before it
    OPEN1_NOT_BEFORE_CLOSE1: "pass",
}

# Every composite is `=>` or `and` over patterns that pass on their own (the
# 2-door cases of the arguments above): an implication whose consequent
# holds, and a conjunction of holding patterns, hold.
_A = _ventil_within(2, 10)
_A9 = _ventil_within(2, 9)
_C = _first_open(2)
_D = _quiet_after_close(2)
COMPOSITE = {
    f"({_C}) => ({_D})": "pass",
    f"({_D}) => ({_C})": "pass",
    f"({_D}) => ({_A})": "pass",
    f"({_A}) => ({_C})": "pass",
    f"(({_A9}) => ({_C})) => ({_D})": "pass",
    f"({_C}) => (({_A}) and ({_D}))": "pass",
}

COUNTEREXAMPLE = {
    # the first Ventil comes exactly 10 after the first Open, not within 9
    _ventil_within(4, 9): "fail",
    # a run that shuts down first never marks Refresh
    "present Refresh lasting 6": "fail",
    # after Shutdown, Idle is gone: a later Button1 is never answered
    "Button1 leadsto first Open1 within [0,10] after Shutdown": "fail",
    # Shutdown then Button4: Open4 never comes
    "Button4 leadsto first Open4 within [0,10]": "fail",
}

# The catalog of eight pattern shapes per model.  `xcheck` expects the
# observers and the trace oracle to agree on every decisive run.
XCHECK = {
    "airlock2": [
        _ventil_within(2, 10),
        _first_open(2),
        "present Refresh lasting 6",
        _quiet_after_close(2),
        OPEN1_NOT_BEFORE_CLOSE1,
        "Button2 leadsto first Open2 within [0,10]",
        "Button2 leadsto first Open2 within [0,10] before Shutdown",
        "Button1 leadsto first Open1 within [0,10] after Shutdown",
    ],
    "relay": [
        "present Bump after Load within [0,2]",
        "present first Load before Decay within ]0,6]",
        "present (lvl = 2) lasting 2",
        "absent Bump after Decay for interval [0,1[",
        "absent Load before Flush for duration 2",
        "Load leadsto first Flush within [1,2]",
        "Load leadsto first Bump within [0,1] before Decay",
        "Flush leadsto first Load within [1,3] after Decay",
    ],
    "chain": [
        "present Step2 after Step1 within [0,0]",
        "present first Step1 before Exit within [6,10]",
        "present A3 lasting 6",
        "absent Exit after Step3 for interval [0,6[",
        "absent Step3 before Reset for duration 3",
        "Step1 leadsto first Step2 within [0,0]",
        "Step2 leadsto first Reset within [4,7] before Exit",
        "Step3 leadsto first Exit within ]0,8] after Step2",
    ],
}

# State classes of the bare 5-door net.  The state-class graph is determined
# by the net, so a correct build finds exactly this many.
AIRLOCK5_CLASSES = 249


@dataclass(frozen=True)
class Invocation:
    """One call of `ttscheck.cli.main` and what it must report."""

    argv: tuple
    model: Path
    pattern_file: Path = None  # `check` and `xcheck` only
    patterns: tuple = ()  # pattern texts in file order
    expected: tuple = ()  # per pattern: "pass" / "fail", or "agree" for xcheck
    classes: int = 0  # `graph` only: the expected class count

    @property
    def command(self) -> str:
        return next(a for a in self.argv if a in ("check", "graph", "xcheck"))


WORKLOADS = ("scale-pass", "composite", "counterexample", "xcheck")


def generate(workload: str, seed: int, workdir: Path, outdir: Path) -> list:
    """Write the workload's inputs under `workdir` and return its invocations.

    Traces and graph exports go to `outdir`.
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def model(name: str, text: str) -> Path:
        path = workdir / f"{name}.tts"
        path.write_text(text, encoding="utf-8")
        return path

    def patterns(name: str, texts) -> tuple:
        texts = list(texts)
        rng.shuffle(texts)
        path = workdir / f"{name}.pat"
        path.write_text("\n".join(texts) + "\n", encoding="utf-8")
        return path, tuple(texts)

    def check(name, mpath, table, out=False) -> Invocation:
        ppath, texts = patterns(name, table)
        head = ("--json", "--out", str(outdir)) if out else ("--json",)
        return Invocation(head + ("check", str(mpath), str(ppath)), mpath, ppath,
                          texts, tuple(table[t] for t in texts))

    if workload == "scale-pass":
        m5 = model("airlock5", airlock_tts(5))
        return [check("scale", m5, SCALE_PASS),
                Invocation(("--json", "--out", str(outdir), "graph", str(m5)), m5,
                           classes=AIRLOCK5_CLASSES)]
    if workload == "composite":
        return [check("composite", model("airlock2", airlock_tts(2)), COMPOSITE)]
    if workload == "counterexample":
        return [check("counterexample", model("airlock4", airlock_tts(4)),
                      COUNTEREXAMPLE, out=True)]
    if workload == "xcheck":
        texts = {"airlock2": airlock_tts(2), "relay": RELAY_TTS, "chain": CHAIN_TTS}
        base_seed = rng.randrange(1_000_000)
        out = []
        for name, catalog in XCHECK.items():
            mpath = model(name, texts[name])
            ppath, order = patterns(name, catalog)
            out.append(Invocation(
                ("--json", "--out", str(outdir), "xcheck", str(mpath), str(ppath),
                 "--runs", str(XCHECK_RUNS), "--seed", str(base_seed)),
                mpath, ppath, order, ("agree",) * len(order)))
        return out
    raise ValueError(f"unknown workload {workload!r}")
