"""`xcheck` against the per-pattern loop it replaced.

`xcheck` simulates each seed once, at the largest pattern horizon, and lets
every pattern read that run cut at its own horizon.  The reference below
simulates every pattern's runs on their own, as `xcheck` once did; the
reports must agree entry by entry.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from conftest import MODELS, xcheck_catalog
from ttscheck import cli
from ttscheck import observers as obs
from ttscheck.expr import format_rational
from ttscheck.model import load_tts
from ttscheck.observers import compose, replay_instrumented, synthesize
from ttscheck.oracle import Verdict, fott_holds
from ttscheck.patterns import format_pattern, parse_pattern_file, pattern_constants
from ttscheck.traces import serialize_trace, simulate, simulate_ticked, truncate

RUNS = 25


def reference_xcheck(model, pattern, runs, base_seed, horizon=None) -> dict:
    """One pattern's report, from runs simulated to its own horizon."""
    inst = compose(model, synthesize(pattern))
    consts = [c for c in pattern_constants(pattern) if c is not None]
    if horizon is None:
        horizon = 3 * max([Fraction(1)] + consts)
    agreements = skipped = mismatches = 0
    for i in range(runs):
        trace = simulate(model, Fraction(horizon), base_seed + i)
        fv = fott_holds(pattern, trace)
        if fv.value is Verdict.INCONCLUSIVE:
            skipped += 1
        elif replay_instrumented(inst, trace).value is fv.value:
            agreements += 1
        else:
            mismatches += 1
    return {
        "pattern": format_pattern(pattern),
        "runs": runs,
        "horizon": format_rational(Fraction(horizon)),
        "decisive": agreements + mismatches,
        "inconclusive": skipped,
        "agreements": agreements,
        "mismatches": mismatches,
    }


def xcheck_json(capsys, *argv) -> list:
    rc = cli.main(["--json", "xcheck", *argv])
    report = json.loads(capsys.readouterr().out)
    assert rc == (0 if all(e["mismatches"] == 0 for e in report["xcheck"]) else 1)
    return report["xcheck"]


@pytest.mark.parametrize("name", ["airlock", "relay", "chain"])
@pytest.mark.parametrize("seed", [0, 7])
def test_xcheck_matches_per_pattern_reference(tmp_path, capsys, name, seed):
    pat = tmp_path / f"{name}.pat"
    pat.write_text("\n".join(xcheck_catalog(name)) + "\n")
    model = load_tts(MODELS / f"{name}.tts")
    patterns = parse_pattern_file(pat.read_text())
    entries = xcheck_json(capsys, str(MODELS / f"{name}.tts"), str(pat),
                          "--runs", str(RUNS), "--seed", str(seed))
    assert len(entries) == len(patterns)
    for entry, p in zip(entries, patterns):
        assert entry == reference_xcheck(model, p, RUNS, seed)


def test_xcheck_matches_reference_at_explicit_horizon(tmp_path, capsys):
    pat = tmp_path / "airlock.pat"
    pat.write_text("\n".join(xcheck_catalog("airlock")) + "\n")
    model = load_tts(MODELS / "airlock.tts")
    entries = xcheck_json(capsys, str(MODELS / "airlock.tts"), str(pat),
                          "--runs", str(RUNS), "--seed", "3", "--horizon", "7/2")
    for entry, p in zip(entries, parse_pattern_file(pat.read_text())):
        assert entry == reference_xcheck(model, p, RUNS, 3, Fraction(7, 2))


def test_mismatch_files_are_named_per_pattern(tmp_path, capsys, monkeypatch):
    """Two corrupted observers mismatching on the same run write two files."""
    real_synthesize = obs.synthesize

    def corrupted(p, system=None):
        # blind the witness hook, as the negative control in test_cli does
        spec = real_synthesize(p, system)
        frag = spec.fragments[0]
        blinded = obs.Hook(frag.hooks[0].role, frag.hooks[0].predicate, ())
        broken = obs.Fragment(frag.prefix, frag.vars,
                              frag.transitions, (blinded,) + frag.hooks[1:],
                              frag.priorities)
        return obs.ObserverSpec((broken,), spec.formula)

    monkeypatch.setattr(cli, "synthesize", corrupted)
    pat = tmp_path / "two.pat"
    # different horizons (30 and 36), so the two patterns read different runs
    pat.write_text("present Ventil after (Open1 | Open2) within [0,10]\n"
                   "present Ventil after (Open1 | Open2) within [0,12]\n")
    out = tmp_path / "out"
    rc = cli.main(["--json", "--out", str(out), "xcheck", str(MODELS / "airlock.tts"),
                   str(pat), "--runs", "15", "--seed", "2"])
    assert rc == 1
    entries = json.loads(capsys.readouterr().out)["xcheck"]
    model = load_tts(MODELS / "airlock.tts")
    runs_per_pattern = []
    for k, entry in enumerate(entries):
        files = [pathlib.Path(f["file"]) for f in entry["mismatch_files"]]
        runs = []
        for path in files:
            assert path.parent == out
            prefix, index, run = path.stem.split("_")
            assert (prefix, index) == ("mismatch", f"{k:03d}")
            own = simulate(model, Fraction(entry["horizon"]), 2 + int(run))
            assert path.read_text() == serialize_trace(own)
            runs.append(int(run))
        runs_per_pattern.append(set(runs))
    assert runs_per_pattern[0] & runs_per_pattern[1]
    all_files = [f["file"] for e in entries for f in e["mismatch_files"]]
    assert len(set(all_files)) == len(all_files)
    assert sorted(p.name for p in out.iterdir()) == sorted(
        pathlib.Path(f).name for f in all_files)


def test_each_run_is_cut_once_per_distinct_horizon(tmp_path, capsys, monkeypatch):
    cuts = []
    real_truncate = cli.truncate
    monkeypatch.setattr(cli, "truncate",
                        lambda run, h: cuts.append(h) or real_truncate(run, h))
    pat = tmp_path / "relay.pat"
    pat.write_text("\n".join(xcheck_catalog("relay")) + "\n")
    entries = xcheck_json(capsys, str(MODELS / "relay.tts"), str(pat),
                          "--runs", "5", "--seed", "1")
    horizons = {e["horizon"] for e in entries}
    assert 1 < len(horizons) < len(entries)
    assert sorted(map(format_rational, cuts)) == sorted(list(horizons) * 5)


def rational_ticks(run) -> list:
    return [Fraction(t, run.scale) for t in run.ticks]


@pytest.mark.parametrize("name", ["airlock", "relay", "chain"])
def test_tick_cut_is_the_run_to_each_catalog_horizon(name):
    # `xcheck` simulates each seed once, in ticks, to the longest horizon; its
    # cut at each pattern's horizon is the run simulated to that horizon, in
    # trace and in ticks.  7/3 falls between two ticks of relay's runs.
    model = load_tts(MODELS / f"{name}.tts")
    horizons = sorted({3 * max([Fraction(1)] + pattern_constants(p))
                       for p in parse_pattern_file("\n".join(xcheck_catalog(name)))})
    if name == "relay":
        horizons.append(Fraction(7, 3))
    assert len(horizons) >= 4
    cut_short = 0
    for seed in range(200):
        run = simulate_ticked(model, max(horizons), seed)
        for h in horizons:
            cut, own = truncate(run, h), simulate_ticked(model, h, seed)
            assert cut.trace == own.trace == simulate(model, h, seed), (h, seed)
            assert rational_ticks(cut) == rational_ticks(own) == \
                [t for t, _ in own.trace.timed], (h, seed)
            cut_short += cut is not run
    assert cut_short > 0
