"""The byte-identity corpus under `tests/golden/corpus/`.

Each case is a model and a pattern file: the `xcheck_catalog` of
`models/airlock.tts`, `relay.tts` and `chain.tts`, each with one `and` and
one `=>` composite, and the 3-door airlock with the airlock catalog.  For
each case the corpus holds what `ttscheck.cli.main` prints and writes:

- `check.json`: `check --json --out`, plus the counterexample traces it
  writes (`counterexample_NNN.trace`);
- `check.txt`: the text `check` report;
- `graph.txt`, `<model>.ksg` and `<model>.dot`: `graph --out`;
- `xcheck.json`: `xcheck --json --seed 5 --runs 30`;
- `simulate_3.trace` and `simulate_11_d3.trace`: `simulate --seed 3` and
  `simulate --seed 11 --denominator 3`;
- `oracle_NNN.json`: `oracle --json` of each failing pattern on the
  counterexample trace written for it;
- `exit_codes.json`: the exit code of every invocation above.

Every path of the scratch directory the commands run in is printed as
`<DIR>`.  The inputs, `patterns.pat` and the 3-door airlock's model, are
committed beside the outputs.

`tests/test_golden_corpus.py` requires every output to stay byte-identical.
To rewrite the corpus, which changes what that test expects, run from the
repository root:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CORPUS = HERE / "corpus"
TOKEN = "<DIR>"
PATTERNS = "patterns.pat"

# case name -> the model it checks; a model inside the case's own directory
# is an input of the corpus
MODELS = {
    "airlock": ROOT / "models" / "airlock.tts",
    "relay": ROOT / "models" / "relay.tts",
    "chain": ROOT / "models" / "chain.tts",
    "airlock3": CORPUS / "airlock3" / "airlock3.tts",
}
INPUTS = {PATTERNS, "airlock3.tts"}


def _pattern_lines(name: str) -> list:
    from conftest import xcheck_catalog
    catalog = xcheck_catalog("airlock" if name == "airlock3" else name)
    if name == "airlock3":
        return catalog
    return catalog + [f"({catalog[0]}) and ({catalog[2]})",
                      f"({catalog[3]}) => ({catalog[5]})"]


def render(name: str, workdir: Path) -> dict:
    """Run every invocation of case `name` inside `workdir`; return each
    output file's name and text."""
    from ttscheck import cli

    model = workdir / MODELS[name].name
    shutil.copyfile(MODELS[name], model)
    patterns = workdir / PATTERNS
    shutil.copyfile(CORPUS / name / PATTERNS, patterns)
    files: dict = {}
    codes: dict = {}

    def run(key: str, *argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes[key] = cli.main([str(a) for a in argv])
        return out.getvalue().replace(str(workdir), TOKEN)

    files["check.json"] = run("check --json --out", "--json", "--out",
                              workdir / "check", "check", model, patterns)
    for f in sorted((workdir / "check").glob("*.trace")):
        files[f.name] = f.read_text(encoding="utf-8")
    files["check.txt"] = run("check", "check", model, patterns)
    files["graph.txt"] = run("graph --out", "--out", workdir / "graph", "graph", model)
    for suffix in (".ksg", ".dot"):
        f = workdir / "graph" / (model.stem + suffix)
        files[f.name] = f.read_text(encoding="utf-8")
    files["xcheck.json"] = run("xcheck --json", "--json", "xcheck", model,
                               patterns, "--seed", "5", "--runs", "30")
    files["simulate_3.trace"] = run("simulate --seed 3", "simulate", model,
                                    "--seed", "3")
    files["simulate_11_d3.trace"] = run(
        "simulate --seed 11 --denominator 3", "simulate", model, "--seed", "11",
        "--denominator", "3")
    report = json.loads(files["check.json"])
    for k, entry in enumerate(report["verdicts"]):
        trace = entry.get("counterexample_trace_file")
        if trace is not None:
            files[f"oracle_{k:03d}.json"] = run(
                f"oracle --json {k:03d}", "--json", "oracle", entry["pattern"],
                trace.replace(TOKEN, str(workdir)))
    files["exit_codes.json"] = json.dumps(codes, indent=2) + "\n"
    return files


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import n_door_airlock_tts
    if CORPUS.exists():
        shutil.rmtree(CORPUS)
    for name in MODELS:
        (CORPUS / name).mkdir(parents=True)
        (CORPUS / name / PATTERNS).write_text(
            "\n".join(_pattern_lines(name)) + "\n", encoding="utf-8")
    MODELS["airlock3"].write_text(n_door_airlock_tts(3) + "\n", encoding="utf-8")
    for name in MODELS:
        with tempfile.TemporaryDirectory() as tmp:
            for fname, text in render(name, Path(tmp)).items():
                (CORPUS / name / fname).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
