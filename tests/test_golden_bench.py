"""The benchmark's four workloads give the outputs in `tests/golden/bench/`.

`tests/golden/regen.py` generates each workload's inputs with
`benchmarks/workloads.generate`, runs its invocations in process and rewrites
the set.  Tier-1 compares seed 1; `matches_golden` is what a CI step calls
for every seed the set holds.
"""

import pytest

from golden import regen


def matches_golden(workload: str, seed: int, workdir) -> None:
    case = regen.BENCH / f"seed{seed}" / workload
    expected = {f.name: f.read_bytes() for f in case.iterdir()}
    got = {fname: text.encode("utf-8")
           for fname, text in regen.render_bench(workload, seed, workdir).items()}
    assert sorted(got) == sorted(expected), (workload, seed)
    for fname in sorted(expected):
        assert got[fname] == expected[fname], (workload, seed, fname)


@pytest.mark.parametrize("workload", regen.benchmark_workloads().WORKLOADS)
def test_benchmark_outputs_match_golden_at_seed_1(workload, tmp_path):
    matches_golden(workload, 1, tmp_path)
