"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's default pytest
collection (``test_*.py``): they start the workloads in fresh
interpreters and take a few minutes.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import Waits  # noqa: E402
from layers import SELF_TIME_METRICS, UNITS  # noqa: E402
from measure import linear_fit, percentile  # noqa: E402
from tracing import PARENT, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7001
KNOB_ENV = {
    "PERCIVAL_CASCADE": "on",
    "PERCIVAL_DIFF": "on",
    "PERCIVAL_WORKERS": "2",
    "PERCIVAL_SERVE_MAX_BATCH": "4",
}


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def bench(workload: str, trace: int, seed: int = SEED, env=None,
          cwd: Path = ROOT) -> tuple:
    """Run the benchmark briefly: (exit code, stdout, the run record)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, **(env or {})),
    )
    record = None
    path = cwd / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    if done.returncode == 0:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
    return done.returncode, done.stdout, record


WORKLOADS = [workload["name"] for workload in spec()["workloads"]]


@pytest.fixture(scope="module")
def runs() -> dict:
    """Each workload once untraced and twice traced, same seed."""
    results = {}
    for workload in WORKLOADS:
        for trace, repeat in ((0, 0), (1, 0), (1, 1)):
            code, stdout, record = bench(workload, trace)
            assert code == 0, stdout
            results[workload, trace, repeat] = (stdout, record)
    return results


# ----------------------------------------------------------------------
# The metric contract
# ----------------------------------------------------------------------
def test_names_and_units_are_well_formed():
    data = spec()
    names = [w["name"] for w in data["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in data[group]:
            names.append(metric["name"])
            assert UNIT.match(metric["unit"]), metric
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))


def test_per_layer_list_matches_the_layers_module():
    per_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert per_layer == UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_listed_metric_is_emitted(runs, workload, trace):
    stdout, _ = runs[workload, trace, 0]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec()[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_trace_digest(runs, workload):
    first = runs[workload, 1, 0][1]["trace_digest"]
    second = runs[workload, 1, 1][1]["trace_digest"]
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_the_traced_wall_time(runs, workload):
    metrics = runs[workload, 1, 0][1]["metrics"]
    total = sum(metrics[name] for name in SELF_TIME_METRICS)
    assert total == pytest.approx(metrics["trace.wall_ms"], rel=1e-9)


def test_self_times_partition_a_nested_call_tree():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    def middle():
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    with tracer.root("root", "r1") as span:
        traced_middle()
        traced_leaf()
    own = tracer.self_times()
    assert sum(own) == pytest.approx(tracer.duration_s(span), rel=1e-9)
    assert all(value >= 0 for value in own)
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, 1, 1, 0]


def test_uninstall_restores_instance_and_module_attributes():
    class Thing:
        def method(self):
            return 1

    thing = Thing()
    original = random.random
    tracer = Tracer()
    tracer.patch(thing, "method", "thing.method")
    tracer.patch(random, "random", "random.random")
    assert thing.method() == 1
    random.random()
    assert [s[0] for s in tracer.spans] == ["thing.method", "random.random"]
    tracer.uninstall()
    assert "method" not in vars(thing)
    assert random.random is original


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_matches_numpy():
    np = pytest.importorskip("numpy")
    rng = random.Random(3)
    for size in (1, 2, 3, 10, 101):
        values = [rng.uniform(-5, 50) for _ in range(size)]
        for q in (0, 1, 25, 50, 75, 95, 99, 99.9, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12, abs=1e-12
            )


def test_linear_fit_recovers_a_line():
    intercept, slope = linear_fit([(1, 2.5), (8, 6.0), (32, 18.0), (64, 34.0)])
    assert slope == pytest.approx(0.5)
    assert intercept == pytest.approx(2.0)


def test_waits_scale_only_the_work():
    waits = Waits([(1.0, 2.0), (3.0, 3.5)])
    assert waits.before(0.5) == 0.0
    assert waits.before(1.5) == pytest.approx(0.5)
    assert waits.before(3.25) == pytest.approx(1.25)
    # 2.75 s, of which 1.25 s slept: the other 1.5 s doubled
    assert waits.scale(0.5, 3.25, 2.0) == pytest.approx(4.25)
    assert Waits([]).scale(0.0, 1.0, 1.5) == pytest.approx(1.5)


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def test_oracle_checks_tier_answers_by_where_they_came_from():
    """A rule answer is judged against the rules its tier could have
    made; any other answer, cached or not, on its P(ad)."""
    sys.path.insert(0, str(ROOT / "src"))
    from serving import check_round

    from repro.cascade.router import TIER_LIST, TIER_MICRO, CascadeHit
    from repro.core.blocker import BlockDecision

    oracle = {"ad": (0.97, True), "content": (0.02, False)}
    micro = "news.test|cdn.test/img|banner"
    trace = type("Trace", (), {
        "keys": ["ad", "content", "ad", "content"],
        "micro_keys": [micro] * 4,
        "domains": ["news.test"] * 4,
    })

    def hit(is_ad, probability, tier=TIER_MICRO, key=micro):
        decision = BlockDecision(
            is_ad=is_ad, probability=probability, from_cache=True
        )
        return CascadeHit(decision, tier, key)

    rule_ad = hit(True, 0.97)
    listed = hit(True, 1.0, TIER_LIST, "list|news.test|net:||adnet.test^")
    stale = BlockDecision(is_ad=False, probability=0.3, from_cache=True)
    fresh = BlockDecision(is_ad=False, probability=0.02, from_cache=False)

    def outcome(answers, rules, conserved=True):
        return check_round(trace, {
            "answers": [getattr(a, "decision", a) for a in answers],
            "rule_answers": rules,
            "stats": {"conserved": conserved},
        }, oracle, 1e-5)

    clean = outcome([rule_ad, fresh, listed, fresh], [rule_ad, listed])
    assert clean == {"errors": 0, "mismatches": 0, "disagreements": 0}
    # a micro-rule compiled from an ad of the key answers a content
    # frame of the same key: a disagreement, not a mismatch
    spill = hit(True, 0.97)
    assert outcome([rule_ad, spill, rule_ad, fresh], [rule_ad, spill]) == {
        "errors": 0, "mismatches": 0, "disagreements": 1,
    }
    # a rule answer no rule of its tier could give is a mismatch: a
    # P(ad) no confident frame of the key has, another key, a list
    # rule of another page or one that does not block
    for wrong in (
        hit(True, 0.9),
        hit(True, 0.97, key="other.test|cdn.test/img|banner"),
        hit(True, 1.0, TIER_LIST, "list|other.test|net:||adnet.test^"),
        hit(False, 1.0, TIER_LIST, "list|news.test|net:||adnet.test^"),
    ):
        assert outcome([wrong, fresh, rule_ad, fresh], [wrong, rule_ad])[
            "mismatches"] == 1, wrong
    # a diff or memo answer carrying a stale verdict is a mismatch, even
    # among many rule hits
    assert outcome([stale, fresh, rule_ad, fresh], [rule_ad])[
        "mismatches"] == 1
    assert outcome([rule_ad, fresh, rule_ad, fresh], [rule_ad], False)[
        "mismatches"] == 1
    assert outcome([rule_ad, RuntimeError(), rule_ad, fresh], [rule_ad])[
        "errors"] == 1


# ----------------------------------------------------------------------
# Pinned knobs and the failure path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_percival_environment_changes_nothing(runs, workload):
    """Same knobs, verdicts and tier counts (serve), and the same
    reference page outcomes (page_render) under a PERCIVAL_* env."""
    clean = runs[workload, 0, 0][1]
    code, stdout, noisy = bench(workload, 0, env=KNOB_ENV)
    assert code == 0, stdout
    assert noisy["resolved"] == clean["resolved"]
    key = "pages" if workload == "page_render" else "per_trace"
    assert noisy[key] == clean[key]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "feed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
