import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import guarded_nets
from test_traces import MISPLACED_ITEMS

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


def test_simulate_open_ended_strict_lower_bound(tmp_path):
    net = tmp_path / "open.tts"
    net.write_text("places P=1\ntrans t in ]1,oo[ consume {P} produce {P}\n")
    r = run_cli("simulate", str(net), "--horizon", "5")
    assert r.returncode == 0
    assert "! t" in r.stdout
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["simulate", "xcheck"])
def test_zero_delay_cycle_exits_3(tmp_path, command):
    # a and b hand the token back and forth at once: time never passes
    net = tmp_path / "zeno.tts"
    net.write_text("places P=1 Q\ntrans a in [0,0] consume {P} produce {Q}\n"
                   "trans b in [0,0] consume {Q} produce {P}\n")
    pat = tmp_path / "zeno.pat"
    pat.write_text("present b after a within [0,1]\n")
    args = (command, str(net)) + ((str(pat), "--runs", "3") if command == "xcheck" else ())
    r = run_cli(*args, "--horizon", "5")
    assert r.returncode == 3
    assert r.stderr.splitlines() == [
        "exploration error: more than 10000 firings at time 0 without time passing"]


@pytest.mark.parametrize("command", ["simulate", "xcheck"])
def test_run_past_the_event_budget_exits_3(tmp_path, command):
    # t fires every 1/(10^39+1): a run to any horizon would never end
    from ttscheck.traces import MAX_RUN_EVENTS

    period = f"1/{10**39 + 1}"
    net = tmp_path / "fast.tts"
    net.write_text(f"places P=1\ntrans t in [{period},{period}] consume {{P}} produce {{P}}\n")
    pat = tmp_path / "fast.pat"
    pat.write_text("present P lasting 2\n")
    args = (command, str(net)) + ((str(pat), "--runs", "3") if command == "xcheck"
                                  else ("--horizon", "1"))
    r = run_cli(*args, "--seed", "0")
    assert r.returncode == 3
    assert r.stderr.splitlines() == [
        f"exploration error: run exceeds the budget of {MAX_RUN_EVENTS} events: "
        f"{MAX_RUN_EVENTS} events fired by time {MAX_RUN_EVENTS}/{10**39 + 1}"]


@pytest.mark.parametrize("command", ["graph", "check", "simulate", "xcheck"])
def test_capacity_overflow_exits_3_with_its_own_line(tmp_path, command):
    # T needs no token and produces into B, whose capacity is 1
    net = tmp_path / "over.tts"
    net.write_text("places A=1 B\ntrans T in [1,1] produce {B}\n")
    pat = tmp_path / "over.pat"
    pat.write_text("present B lasting 1\n")
    extra = {"check": (str(pat),), "xcheck": (str(pat), "--runs", "3")}.get(command, ())
    r = run_cli(command, str(net), *extra)
    assert r.returncode == 3
    assert r.stderr.splitlines() == ["capacity: place 'B' exceeds capacity 1 when T fires"]


def deep_inputs(tmp_path, guard, predicate):
    """Command lines of `graph` on a net guarded by `guard`, and of `check`
    and `xcheck` on the airlock with a pattern whose event is `predicate`."""
    net = tmp_path / "deep.tts"
    net.write_text(f"places P=1\nvars x=true\ntrans t in [1,1] pre {{{guard}}} consume {{P}}\n")
    pat = tmp_path / "deep.pat"
    pat.write_text(f"present Ventil after {predicate} within [0,10]\n")
    return {"graph": ("graph", str(net)),
            "check": ("check", "models/airlock.tts", str(pat)),
            "xcheck": ("--json", "xcheck", "models/airlock.tts", str(pat), "--runs", "3")}


@pytest.mark.parametrize("command", ["graph", "check", "xcheck"])
def test_expression_nested_too_deeply_is_input_error(tmp_path, command):
    # 1,500 nested `!` in a guard under `graph`, 1,500 nested parentheses
    # around a pattern predicate under `check` and `xcheck`, overrun the
    # recursion limit of the parser: one error line and exit 2, no traceback
    n = 1500
    args = deep_inputs(tmp_path, "!" * n + "x", "(" * n + "Open1" + ")" * n)[command]
    r = run_cli(*args)
    assert r.returncode == 2
    (line,) = r.stderr.splitlines()
    assert line.startswith("error: ") and "nested too deeply" in line
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["graph", "check", "xcheck"])
def test_long_chains_get_verdicts(tmp_path, command):
    # a 1,500-term `|` chain, as a guard under `graph` and as a pattern
    # predicate under `check` and `xcheck`, is one node: no walker recurses
    # through it
    n = 1500
    args = deep_inputs(tmp_path, " | ".join(["x"] * n),
                       "(" + " | ".join(["Open1"] * n) + ")")[command]
    r = run_cli(*args)
    assert (r.returncode, r.stderr) == (0, "")
    if command == "graph":
        assert r.stdout.startswith("2 classes, 1 edges, 1 deadlock(s)")
    elif command == "check":
        assert r.stdout.startswith("[pass] present Ventil after (Open1 | Open1 | ")
    else:
        (entry,) = json.loads(r.stdout)["xcheck"]
        assert entry["mismatches"] == 0 and entry["decisive"] > 0


@pytest.mark.parametrize("command", ["check", "xcheck"])
def test_deeply_negated_predicate_reads_as_the_bare_one(tmp_path, command):
    # 600 nested `!` around a pattern predicate parse, and every step of
    # the check and of the replays evaluates through them: the report is
    # the bare predicate's, with the predicate's text in its place
    deep = "!" * 600 + "Open1"
    out = {}
    for name, predicate in (("deep", deep), ("bare", "Open1")):
        (tmp_path / name).mkdir()
        r = run_cli(*deep_inputs(tmp_path / name, "x", predicate)[command])
        assert (r.returncode, r.stderr) == (0, "")
        out[name] = r.stdout
    assert out["deep"] == out["bare"].replace("after Open1", f"after {deep}")


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


@pytest.mark.parametrize("name", MISPLACED_ITEMS)
def test_misplaced_trace_item_is_input_error(tmp_path, name):
    text, message = MISPLACED_ITEMS[name]
    path = tmp_path / "misplaced.trace"
    path.write_text(text)
    r = run_cli("oracle", "present Open1 after Button1 within [0,10]", str(path))
    assert r.returncode == 2
    assert r.stderr == f"error: cannot load trace {path}: {message}\n"


@pytest.mark.parametrize("kind,args", [
    ("model", ("graph",)),
    ("patterns", ("check", "models/airlock.tts")),
    ("patterns", ("xcheck", "models/airlock.tts")),
    ("trace", ("oracle", "present Ventil after Open1 within [0,10]")),
], ids=["graph-model", "check-patterns", "xcheck-patterns", "oracle-trace"])
def test_non_utf8_input_is_input_error(tmp_path, kind, args):
    # a UTF-16 byte-order mark: the file is text, but not UTF-8
    path = tmp_path / "bin"
    path.write_bytes(b"\xff\xfeplaces P=1\n")
    r = run_cli(*args, str(path))
    assert r.returncode == 2
    assert r.stderr == (f"error: cannot load {kind} {path}: 'utf-8' codec can't decode "
                        "byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("command", ["check", "xcheck"])
def test_observer_prefix_skips_names_the_model_declares(tmp_path, command):
    # the net declares ob1_foundA, a name of the `lasting` observer under the
    # prefix ob1_: the observer takes ob2_, and the pattern is checked
    net = tmp_path / "clash.tts"
    net.write_text("places P=1\nvars ob1_foundA=false\ntrans T in [1,1] consume {P}\n")
    pat = tmp_path / "clash.pat"
    pat.write_text("present P lasting 2\n")
    if command == "check":
        r = run_cli("--json", "check", str(net), str(pat))
        assert r.returncode == 1, r.stderr  # P holds for 1 time unit only
        (entry,) = json.loads(r.stdout)["verdicts"]
        assert entry["result"] == "fail"
        assert entry["formula"] == "([](!(ev(ob2_Error))) & <>(st(ob2_foundA)))"
    else:
        r = run_cli("xcheck", str(net), str(pat), "--runs", "3")
        assert r.returncode == 0, r.stderr
        assert r.stdout == "[      ok] present P lasting 2: 3/3 agree, 0 inconclusive\n"
    assert r.stderr == ""


@pytest.mark.parametrize("command", ["check", "graph", "simulate", "xcheck"])
def test_out_naming_a_file_is_input_error(tmp_path, command):
    # each subcommand gets to write: check a counterexample of a failing
    # pattern, xcheck a mismatch on the self-loop net of the open `lasting`
    # divergence (docs/formats.md)
    failing = tmp_path / "failing.pat"
    failing.write_text("present Ventil after Open1 within [0,1]\n")
    loop = tmp_path / "loop.tts"
    loop.write_text("places P0=1\ntrans t0 in [1,1] consume {P0} produce {P0}\n")
    lasting = tmp_path / "lasting.pat"
    lasting.write_text("present P0 lasting 2\n")
    args = {"check": ("models/airlock.tts", str(failing)),
            "xcheck": (str(loop), str(lasting), "--runs", "5")}.get(
                command, ("models/airlock.tts",))
    out = tmp_path / "taken"
    out.write_text("")
    r = run_cli("--out", str(out), command, *args)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith(f"error: cannot write {out}/") and r.stderr.count("\n") == 1, r.stderr


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


def test_guard_on_consumed_place_checks_and_xchecks(tmp_path):
    # the observer's guards read !Idle; Open1 consumes Idle, so a watcher
    # disabled before Open1 is enabled in its intermediate marking and its
    # clock must start at Open1
    pat = tmp_path / "lasting.pat"
    pat.write_text("present !Idle lasting 3\n")
    r = run_cli("--json", "check", "models/airlock.tts", str(pat))
    assert "Traceback" not in r.stderr
    assert r.returncode == 0
    assert json.loads(r.stdout)["verdicts"][0]["result"] == "pass"
    r = run_cli("--json", "xcheck", "models/airlock.tts", str(pat), "--runs", "20")
    assert "Traceback" not in r.stderr
    assert r.returncode == 0
    assert json.loads(r.stdout)["xcheck"][0]["mismatches"] == 0


def test_xcheck_detects_injected_observer_corruption(tmp_path, monkeypatch):
    """Negative control: a deliberately broken observer must be caught."""
    import ttscheck.cli as cli
    import ttscheck.observers as obs
    from ttscheck.model import load_tts
    from ttscheck.patterns import parse_pattern

    model = load_tts(ROOT / "models/airlock.tts")
    pattern = parse_pattern("present Ventil after (Open1 | Open2) within [0,10]")

    real_synthesize = obs.synthesize

    def corrupted(p, system=None):
        spec = real_synthesize(p, system)
        frag = spec.fragments[0]
        # blind the witness hook: its action no longer latches the occurrence
        blinded = obs.Hook(frag.hooks[0].role, frag.hooks[0].predicate, ())
        broken = obs.Fragment(frag.prefix, frag.vars,
                              frag.transitions, (blinded,) + frag.hooks[1:],
                              frag.priorities)
        return obs.ObserverSpec((broken,), spec.formula)

    monkeypatch.setattr(cli, "synthesize", corrupted)
    entry = cli._xcheck(model, [pattern], 15, 2, None, None)[0]
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


# ---------------------------------------------------------------------------
# The entry point on random nets with place guards

FUZZ_PATTERNS = (
    "present t1 after t0 within [0,3]",
    "present first t0 before t1 within ]0,4]",
    "present P0 lasting 2",  # its observer would be ob1_, whose ob1_win the net declares
    "absent t1 after t0 for interval [0,2[",
    "absent t0 before t1 for duration 2",
    "t0 leadsto first t1 within [0,3]",
    "(t1 leadsto first t0 within [0,2]) => (present P1 lasting 1)",
)


@settings(max_examples=40, deadline=None)
@given(guarded_nets(), st.lists(st.sampled_from(FUZZ_PATTERNS), min_size=1,
                                max_size=2, unique=True))
def test_cli_returns_an_exit_code_on_random_guarded_nets(net, patterns):
    """`main` returns 0-3 and raises nothing.  Exit 1 includes the known
    `lasting` self-loop mismatch.  No input is malformed, so none exits 2:
    the net declares `ob1_win`, and an observer that would take the prefix
    `ob1_` takes the next free one."""
    from ttscheck.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        model = pathlib.Path(tmp) / "net.tts"
        model.write_text(net + "\nvars ob1_win=false\n")
        pat = pathlib.Path(tmp) / "p.pat"
        pat.write_text("\n".join(patterns) + "\n")
        for args in (["check", str(model), str(pat), "--max-classes", "2000"],
                     ["xcheck", str(model), str(pat), "--runs", "3"],
                     ["simulate", str(model)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args)
            assert code in (0, 1, 3), (args, code, err.getvalue())


# ---------------------------------------------------------------------------
# The entry point on random text of each input format

TTS_LINES = ["places P=1 Q R=1/2", "vars x=true n:0..2=1",
             "trans T in [1,2] consume {P} produce {Q}",
             "trans U in ]0,3] consume {Q} produce {P} pre {n < 2} act {n := n + 1}",
             "trans V in [1,2] read {R} act {x := !x;}", "trans W in [3,4] read {Q} produce {R}",
             "prio T > U"]
PAT_LINES = ["present U after T within [0,3]", "present first T before U within ]0,4]",
             "present Q lasting 2", "absent U after T for interval [0,2[",
             "absent T before U for duration 2", "T leadsto first U within [0,3] after x",
             "(absent T before U for duration 2) => (present !P lasting 1)"]
TRACE_LINES = ["= m:{P=1,R=1} | s:{n=1,x=true}", "@ 1", "@ 1/2",
               "! T | m:{Q=1,R=1} | s:{n=1,x=true}", "! U | m:{P=1,R=1} | s:{n=2,x=true}",
               "%deadlock"]
TOKENS = ["places", "vars", "trans", "prio", "P", "Q", "T", "U", "x", "n", "=", "1", "0",
          "1/2", "oo", "{", "}", "[", "]", ",", ";", ":", "..", ":=", "!", "&", "|", ">", "<",
          "in", "pre", "consume", "act", "present", "absent", "first", "after", "before",
          "within", "lasting", "leadsto", "for", "and", "=>", "(", ")", "@", "m:{P=1}", "s:{}",
          "%deadlock"]


@st.composite
def near_texts(draw, lines, max_lines, always=0):
    """The first `always` of a format's lines and some others, in order, with
    one word inserted or dropped two times in three."""
    picked = draw(st.lists(st.integers(always, len(lines) - 1), min_size=1,
                           max_size=max_lines, unique=True))
    text = [lines[k].split(" ") for k in list(range(always)) + sorted(picked)]
    words = draw(st.sampled_from(text))
    edit = draw(st.sampled_from(["none", "insert", "drop"]))
    if edit == "insert":
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(TOKENS)))
    elif edit == "drop":
        del words[draw(st.integers(0, len(words) - 1))]
    return "\n".join(" ".join(w) for w in text) + "\n"


@settings(max_examples=150, deadline=None)
@given(near_texts(TTS_LINES, 3, always=4), near_texts(PAT_LINES, 2), near_texts(TRACE_LINES, 5))
def test_cli_returns_an_exit_code_on_random_input_text(tts, pat, trace):
    """`main` returns 0-3 and raises nothing on text built from the lines and
    tokens of `.tts`, `.pat` and `.trace` files, whether or not it parses."""
    from ttscheck.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, text in (("m.tts", tts), ("p.pat", pat), ("r.trace", trace)):
            paths.append(pathlib.Path(tmp) / name)
            paths[-1].write_text(text, encoding="utf-8")
        model, patterns, run = map(str, paths)
        for args in (["check", model, patterns, "--max-classes", "500"],
                     ["graph", model, "--max-classes", "500"],
                     ["simulate", model],
                     ["xcheck", model, patterns, "--runs", "3"],
                     ["oracle", pat.splitlines()[0], run]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(args)
            assert code in (0, 1, 2, 3), (args, code)


NOT_UTF8 = [b"\xff\xfe", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]


@settings(max_examples=60, deadline=None)
@given(near_texts(TTS_LINES, 3, always=4), near_texts(PAT_LINES, 2), near_texts(TRACE_LINES, 5),
       st.sampled_from(["model", "patterns", "trace"]), st.sampled_from(NOT_UTF8), st.data())
def test_cli_reports_non_utf8_input_text_as_input_error(tts, pat, trace, kind, bad, data):
    """Bytes that are not UTF-8, put anywhere in a `.tts`, `.pat` or `.trace`
    file, make every command that reads the file exit 2 with one `error:`
    line.  A command that reads the file first names it."""
    from ttscheck.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for k, name, text in (("model", "m.tts", tts), ("patterns", "p.pat", pat),
                              ("trace", "r.trace", trace)):
            raw = text.encode("utf-8")
            if k == kind:
                at = data.draw(st.integers(0, len(raw)))
                raw = raw[:at] + bad + raw[at:]
            paths[k] = pathlib.Path(tmp) / name
            paths[k].write_bytes(raw)
        model, patterns, run = (str(paths[k]) for k in ("model", "patterns", "trace"))
        readers = {"model": (["check", model, patterns], ["graph", model],
                             ["simulate", model], ["xcheck", model, patterns, "--runs", "3"]),
                   "patterns": (["check", model, patterns],
                                ["xcheck", model, patterns, "--runs", "3"]),
                   "trace": (["oracle", PAT_LINES[0], run],)}
        named = f"error: cannot load {kind} {paths[kind]}: 'utf-8' codec can't decode"
        for args in readers[kind]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args)
            assert code == 2, (args, code)
            assert err.getvalue().count("\n") == 1, err.getvalue()
            if kind == "patterns":  # read after the model, which may be malformed
                assert err.getvalue().startswith((named, "error: cannot load model ")), args
            else:
                assert err.getvalue().startswith(named), (args, err.getvalue())


def test_invocations_leave_no_cyclic_garbage():
    """Composing the airlock's observers and one `check` and one `xcheck`
    through `main` free everything by reference counting: with the collector
    off, it finds nothing left over.  Only building the argument parser,
    once per process, leaves cycles behind."""
    import gc

    from ttscheck.cli import build_parser, main
    from ttscheck.model import load_tts
    from ttscheck.observers import compose, synthesize
    from ttscheck.patterns import parse_pattern_file

    airlock, pat = str(ROOT / "models" / "airlock.tts"), str(ROOT / "models" / "airlock.pat")
    model = load_tts(airlock)
    patterns = parse_pattern_file((ROOT / "models" / "airlock.pat").read_text())
    runs = {"compose": lambda: [compose(model, synthesize(p)) for p in patterns],
            "check": lambda: main(["check", airlock, pat]),
            "xcheck": lambda: main(["xcheck", airlock, pat, "--runs", "2"])}
    build_parser()
    gc.collect()
    gc.disable()
    try:
        for name, run in runs.items():
            with contextlib.redirect_stdout(io.StringIO()):
                run()
            assert gc.collect() == 0, name
    finally:
        gc.enable()
