"""Checks of the benchmark's input generator.

    python3 -m pytest perfbench -q
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
from hybridwlp.hwl import parse_spec  # noqa: E402

PROBLEMS = ROOT / "problems"


def all_inputs(seed):
    return (gen.prove_inputs(seed, PROBLEMS) + gen.refute_inputs(seed, PROBLEMS)
            + gen.search_inputs(seed, PROBLEMS))


def digest(seed: int) -> str:
    h = hashlib.sha256()
    for inp in all_inputs(seed):
        h.update(inp.name.encode() + b"\0" + inp.text.encode() + b"\0")
    for op in gen.law_ops(seed):
        h.update(op.name.encode() + b"\0")
    return h.hexdigest()


def test_same_seed_gives_byte_identical_texts_across_processes():
    code = f"import sys; sys.path[:0] = {[str(BENCH), str(ROOT / 'src')]!r}; " \
           "import test_gen; print(test_gen.digest(7))"
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        digests.add(out.stdout.strip())
    assert digests == {digest(7)}


def test_seed_changes_generated_families():
    texts = [{i.name: i.text for i in all_inputs(seed)} for seed in range(1, 7)]
    assert all(t.keys() == texts[0].keys() for t in texts)
    seeded = [n for n in texts[0] if n.startswith(("ball_", "rotation_", "drift_", "discrete_"))]
    assert seeded
    for name in seeded:
        assert len({t[name] for t in texts}) > 1, name


def test_every_input_parses_and_names_are_unique():
    for seed in (1, 2):
        for inputs in (gen.prove_inputs(seed, PROBLEMS), gen.refute_inputs(seed, PROBLEMS)):
            assert len({i.name for i in inputs}) == len(inputs)
            for inp in inputs:
                assert parse_spec(inp.text).name == inp.name


def test_answers_follow_the_workload():
    prove, refute = gen.prove_inputs(3, PROBLEMS), gen.refute_inputs(3, PROBLEMS)
    assert {i.verify_expect for i in prove} == {"proved"}
    assert {i.verify_expect for i in refute} == {"refuted"}
    assert all(i.holds for i in prove)
    defects = {i.name: i.known_defect for i in prove + refute if i.known_defect}
    assert defects == {"probe_grid_refutation": "ROADMAP item 2",
                       "probe_binder_capture": "ROADMAP item 1"}
    search = gen.search_inputs(3, PROBLEMS)
    assert sorted(i.name for i in search) == sorted(i.name for i in prove + refute if i.hybrid)


def test_discrete_sizes_and_off_by_one():
    for n in gen.DISCRETE_SIZES:
        exact, off = gen.discrete(5, n, False), gen.discrete(5, n, True)
        body = exact.text.split("program", 1)[1]
        assert body.count(":=") == n + body.count("if ")  # one per branch
        assert body.count("if ") == min(gen.IFS_MAX, n // gen.STATEMENTS_PER_IF)
        post_e = exact.text.split("\npost ")[1].split("\n")[0].split(" & ")
        post_o = off.text.split("\npost ")[1].split("\n")[0].split(" & ")
        assert sum(a != b for a, b in zip(post_e, post_o)) == 1


def test_law_ops_expect_only_compose_comm_to_fail():
    ops = gen.law_ops(1)
    assert {op.law for op in ops if not op.expect_pass} == {"compose-comm"}
    assert len({op.name for op in ops}) == len(ops)
