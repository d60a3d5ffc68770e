import json
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "ttscheck.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_check_matches_golden_report():
    r = run_cli("--json", "check", "models/airlock.tts", "models/airlock.pat")
    assert r.returncode == 1  # two failing requirements in the suite
    assert json.loads(r.stdout) == json.loads((GOLDEN / "airlock_check.json").read_text())


def test_check_text_report_matches_golden():
    r = run_cli("check", "models/airlock.tts", "models/airlock.pat")
    assert r.stdout == (GOLDEN / "airlock_check.txt").read_text()


def test_check_reports_are_reproducible():
    r1 = run_cli("--json", "check", "models/airlock.tts", "models/airlock.pat")
    r2 = run_cli("--json", "check", "models/airlock.tts", "models/airlock.pat")
    assert r1.stdout == r2.stdout


def test_check_all_passing_suite(tmp_path):
    pat = tmp_path / "ok.pat"
    pat.write_text("present Ventil after (Open1 | Open2) within [0,10]\n")
    r = run_cli("check", "models/airlock.tts", str(pat))
    assert r.returncode == 0


def test_check_empty_pattern_file_is_vacuous(tmp_path):
    pat = tmp_path / "empty.pat"
    pat.write_text("# nothing\n")
    r = run_cli("check", "models/airlock.tts", str(pat))
    assert r.returncode == 0


def test_check_writes_counterexample_traces(tmp_path):
    pat = tmp_path / "bad.pat"
    pat.write_text("present Ventil after (Open1 | Open2) within [0,9]\n")
    out = tmp_path / "out"
    r = run_cli("--json", "--out", str(out), "check", "models/airlock.tts", str(pat))
    assert r.returncode == 1
    report = json.loads(r.stdout)
    trace_file = report["verdicts"][0]["counterexample_trace_file"]
    assert pathlib.Path(trace_file).exists()


def test_malformed_model_is_input_error(tmp_path):
    bad = tmp_path / "bad.tts"
    bad.write_text("places P=1\ntrans t consume {Nowhere}\n")
    pat = tmp_path / "p.pat"
    pat.write_text("present t after t within [0,1]\n")
    r = run_cli("check", str(bad), str(pat))
    assert r.returncode == 2


def test_invalid_pattern_is_input_error(tmp_path):
    pat = tmp_path / "p.pat"
    pat.write_text("present Nothing after Open1 within [0,1]\n")
    r = run_cli("check", "models/airlock.tts", str(pat))
    assert r.returncode == 2


def test_budget_exhaustion_exit_code(tmp_path):
    pat = tmp_path / "p.pat"
    pat.write_text("present Ventil after Open1 within [0,1]\n")
    r = run_cli("check", "models/airlock.tts", str(pat), "--max-classes", "3")
    assert r.returncode == 3


def test_graph_export_matches_golden(tmp_path):
    r = run_cli("--out", str(tmp_path), "graph", "models/airlock.tts")
    assert r.returncode == 0
    assert (tmp_path / "airlock.ksg").read_text() \
        == (GOLDEN / "airlock.ksg").read_text()
    assert (tmp_path / "airlock.dot").exists()


def test_graph_two_node_net(tmp_path):
    net = tmp_path / "tiny.tts"
    net.write_text("places P=1\ntrans go consume {P}\n")
    r = run_cli("--json", "graph", str(net))
    report = json.loads(r.stdout)
    assert report["nodes"] == 2 and report["edges"] == 1
    assert report["deadlocks"] == [1]


def test_simulate_deterministic_per_seed(tmp_path):
    r1 = run_cli("simulate", "models/airlock.tts", "--seed", "4", "--horizon", "30")
    r2 = run_cli("simulate", "models/airlock.tts", "--seed", "4", "--horizon", "30")
    r3 = run_cli("simulate", "models/airlock.tts", "--seed", "5", "--horizon", "30")
    assert r1.stdout == r2.stdout
    assert r1.stdout != r3.stdout


def test_simulate_notes_deadlock(tmp_path):
    net = tmp_path / "tiny.tts"
    net.write_text("places P=1\ntrans go in [2,2] consume {P}\n")
    r = run_cli("simulate", str(net), "--horizon", "9")
    assert "%deadlock" in r.stdout


@pytest.mark.parametrize("args", [
    ("simulate", "models/airlock.tts", "--horizon", "abc"),
    ("simulate", "models/airlock.tts", "--horizon", "-5"),
    ("simulate", "models/airlock.tts", "--denominator", "0"),
    ("simulate", "models/airlock.tts", "--denominator", "-3"),
    ("xcheck", "models/airlock.tts", "models/airlock.pat", "--horizon", "x"),
    ("xcheck", "models/airlock.tts", "models/airlock.pat", "--horizon=-1/2"),
    ("xcheck", "models/airlock.tts", "models/airlock.pat", "--runs", "0"),
    ("xcheck", "models/airlock.tts", "models/airlock.pat", "--runs", "-1"),
    ("check", "models/airlock.tts", "models/airlock.pat", "--max-classes", "0"),
    ("graph", "models/airlock.tts", "--max-classes", "0"),
    ("graph", "models/airlock.tts", "--max-classes", "-3"),
])
def test_malformed_numeric_option_is_input_error(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize("args,text", [
    (("oracle", "present Ventil after Open1 within [0,10]"), "! Open1 | m:{Idle=x} | s:{}"),
    (("oracle", "present Ventil after Open1 within [0,10]"),
     "! Open1 | m:{Idle=1} | s:{req1=maybe}"),
    (("oracle", "present Ventil after Open1 within [0,10]"), "! Open1 | m:{Idle=-3} | s:{}"),
    (("oracle", "present Ventil lasting 1/0"), "! Open1 | m:{Idle=1} | s:{}"),
    (("check", "models/airlock.tts"), "present Ventil lasting 1/0"),
    (("check", "models/airlock.tts"), "absent Open1 before Close1 for duration 3/0"),
    (("xcheck", "models/airlock.tts"), "absent Open1 before Close1 for duration 3/0"),
    (("oracle", "Button1 leadsto first Open1 within [0,2] between Open2 and Close2"),
     "! Open1 | m:{Idle=1} | s:{}"),
    (("oracle", "Button1 leadsto first Open1 within [0,2] after Open2 until Close2"),
     "! Open1 | m:{Idle=1} | s:{}"),
], ids=["trace-marking", "trace-store", "trace-negative-marking", "oracle-lasting",
        "check-lasting", "check-duration", "xcheck-duration", "oracle-between-scope",
        "oracle-after-until-scope"])
def test_bad_trace_value_or_zero_denominator_is_input_error(tmp_path, args, text):
    path = tmp_path / "input"
    path.write_text(text + "\n")
    r = run_cli(*args, str(path))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize("args", [
    ("check", "models/airlock.tts", "models/airlock.pat"),
    ("graph", "models/airlock.tts"),
], ids=["check", "graph"])
def test_budget_line_says_how_far_the_build_got(args):
    r = run_cli(*args, "--max-classes", "3")
    assert r.returncode == 3
    assert "Traceback" not in r.stderr
    assert r.stderr == ("budget: class budget 3 exceeded while exploring"
                        " (3 classes, 2 edges, 3 in frontier)\n")


def test_jobs_option_is_gone():
    r = run_cli("check", "models/airlock.tts", "models/airlock.pat", "--jobs", "2")
    assert r.returncode == 2
    assert "unrecognized arguments: --jobs" in r.stderr


def test_oracle_command_round_trip(tmp_path):
    trace = tmp_path / "t.trace"
    r = run_cli("simulate", "models/airlock.tts", "--seed", "1", "--horizon", "40")
    trace.write_text(r.stdout)
    r2 = run_cli("--json", "oracle",
                 "present Ventil after (Open1 | Open2) within [0,10]", str(trace))
    report = json.loads(r2.stdout)
    assert report["fott"] == "holds"
    assert report["agree"] is True
    assert r2.returncode == 0


def test_xcheck_zero_mismatches(tmp_path):
    pat = tmp_path / "p.pat"
    pat.write_text("present Ventil after (Open1 | Open2) within [0,10]\n")
    r = run_cli("--json", "xcheck", "models/airlock.tts", str(pat),
                "--runs", "20", "--seed", "5")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["xcheck"][0]["mismatches"] == 0
    assert report["xcheck"][0]["agreements"] > 0


def test_xcheck_detects_injected_observer_corruption(tmp_path, monkeypatch):
    """Negative control: a deliberately broken observer must be caught."""
    import ttscheck.cli as cli
    import ttscheck.observers as obs
    from ttscheck.model import load_tts
    from ttscheck.patterns import parse_pattern

    model = load_tts(ROOT / "models/airlock.tts")
    pattern = parse_pattern("present Ventil after (Open1 | Open2) within [0,10]")

    real_synthesize = obs.synthesize

    def corrupted(p):
        spec = real_synthesize(p)
        frag = spec.fragments[0]
        # blind the witness hook: its action no longer latches the occurrence
        blinded = obs.Hook(frag.hooks[0].role, frag.hooks[0].predicate, ())
        broken = obs.Fragment(frag.prefix, frag.vars,
                              frag.transitions, (blinded,) + frag.hooks[1:],
                              frag.priorities)
        return obs.ObserverSpec((broken,), spec.formula)

    monkeypatch.setattr(cli, "synthesize", corrupted)
    entry = cli.run_xcheck(model, pattern, runs=15, base_seed=2)
    assert entry["mismatches"] > 0


def test_check_text_report_flags_zeno_lasso(tmp_path):
    # a and b hand the token back and forth at once: time never advances
    net = tmp_path / "zeno.tts"
    net.write_text("places P=1 Q\ntrans a in [0,0] consume {P} produce {Q}\n"
                   "trans b in [0,0] consume {Q} produce {P}\n")
    pat = tmp_path / "p.pat"
    pat.write_text("present first a before b within [1,2]\n")
    r = run_cli("--json", "check", str(net), str(pat))
    assert r.returncode == 1
    assert json.loads(r.stdout)["verdicts"][0]["cycle_time_lower_bound"] == "0"
    r = run_cli("check", str(net), str(pat))
    assert r.stdout.splitlines() == [
        "[fail] present first a before b within [1,2]  (4 classes)",
        "       zeno: the cycle can take zero time",
    ]


def test_timings_cover_witness_extraction(tmp_path, monkeypatch):
    import contextlib
    import io
    import time

    import ttscheck.cli as cli

    real = cli.find_decisive_extension

    def slow(*args, **kwargs):
        time.sleep(0.3)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "find_decisive_extension", slow)
    pat = tmp_path / "bad.pat"
    pat.write_text("present Ventil after (Open1 | Open2) within [0,9]\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--json", "--out", str(tmp_path / "out"), "check",
                         str(ROOT / "models/airlock.tts"), str(pat), "--timings"])
    assert code == 1
    assert json.loads(out.getvalue())["verdicts"][0]["time_ms"] >= 300
