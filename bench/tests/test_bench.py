"""Tests of the benchmark itself (not of exactdisc).

    python3 -m pytest bench/tests -q

They cover the generator's determinism, the hierarchy construction behind
`audit_radical`, self-time arithmetic for nested spans, that a mutated
output document is counted as a failed job, and that tracing leaves every
output byte unchanged.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from exactdisc import build_X8, golden_rules, rule_to_doc, subspace_to_doc  # noqa: E402
from exactdisc.discretize import Subspace  # noqa: E402


def _pool_bytes(workload, seed, workdir):
    jobs = gen.make_pool(workload, seed, workdir)
    return json.dumps([(j.docs, j.commands) for j in jobs], sort_keys=True)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = _pool_bytes(workload, 5, "w")
    assert a == _pool_bytes(workload, 5, "w")
    assert a != _pool_bytes(workload, 6, "w")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_pool_is_whole_blocks_of_distinct_subspaces(workload):
    jobs = gen.make_pool(workload, 3, "w")
    block = len(gen.BLOCKS[workload])
    assert len(jobs) % block == 0
    subspaces = {json.dumps(next(iter(j.docs.values())), sort_keys=True) for j in jobs}
    assert len(subspaces) == len(jobs) > 128  # more than the gram LRU holds
    if workload == "audit_radical":
        passing = [j.spec["passing"] for j in jobs]
        assert all(sorted(passing[i:i + 2]) == [False, True] for i in range(0, len(jobs), 2))


def test_hierarchy_with_ex2_parameters_is_ex2():
    import random

    funcs, nodes = gen.hierarchy(random.Random(0), 5, 23)
    names = tuple(f"h{i}" for i in range(8))
    assert subspace_to_doc(Subspace(names, tuple(funcs))) == subspace_to_doc(build_X8())
    assert rule_to_doc(gen.audit_rule(nodes, False)) == rule_to_doc(golden_rules()["ex2-nine"][1])


def test_parse_radical_reads_the_program_format():
    assert check.parse_radical("-43/240 + 3/40*sqrt(6)") == gen.H01
    assert check.parse_radical("0") == {}
    assert check.parse_radical("sqrt(5) - 2") == {5: 1, 1: -2}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def leaf(dt):
        clock.now += dt

    c = tr.span("piecewise.c", leaf)
    d = tr.span("piecewise.d", leaf)

    def body_b():
        clock.now += 1.0
        c(2.0)
        clock.now += 0.5

    b = tr.span("discretize.b", body_b)

    def body_a():
        clock.now += 3.0
        b()
        d(4.0)
        b()  # the same name twice: inclusive time adds, no double count

    a = tr.span("cli.a", body_a)
    a()
    assert tr.total("cli.a") == pytest.approx(3.0 + 3.5 + 4.0 + 3.5)
    assert tr.total("cli.a", "self") == pytest.approx(3.0)
    assert tr.total("discretize.b") == pytest.approx(7.0)
    assert tr.total("discretize.b", "self") == pytest.approx(3.0)
    assert tr.total("discretize.b", "calls") == 2
    assert tr.total("piecewise.c", "self") == pytest.approx(4.0)
    assert tr.layer_self("piecewise") == pytest.approx(8.0)
    names = [tr.names[i] for i in tr.log_name]
    assert names == ["cli.a", "discretize.b", "piecewise.c", "piecewise.d",
                     "discretize.b", "piecewise.c"]
    assert list(tr.log_parent) == [-1, 0, 1, 0, 0, 4]
    assert list(tr.log_self) == pytest.approx([3.0, 1.5, 2.0, 4.0, 1.5, 2.0])


def test_recursive_span_counts_outermost_time_once():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def body(n):
        clock.now += 1.0
        if n:
            f(n - 1)

    f = tr.span("discretize.f", body)
    f(2)
    assert tr.total("discretize.f") == pytest.approx(3.0)
    assert tr.total("discretize.f", "self") == pytest.approx(3.0)
    assert tr.total("discretize.f", "calls") == 3


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _first_jobs(workload, workdir, n):
    jobs = gen.make_pool(workload, 11, workdir)
    gen.write_docs(jobs, workdir)
    # the cheapest jobs of the first block keep the test fast
    return sorted(jobs[: len(gen.BLOCKS[workload])], key=lambda j: len(json.dumps(j.docs)))[:n]


def _semantic_mutation(workload, outputs):
    """Change one fact in one document, leaving it well-formed."""
    k = {"min_sweep": 0, "grid_positive": 0, "audit_radical": 1}[workload]
    code, text = outputs[k]
    doc = json.loads(text)
    if workload == "min_sweep":
        doc["witness"]["weights"][0] += " + 1"
    elif workload == "grid_positive":
        doc["count"] += 1
    else:
        doc["pass"] = not doc["pass"]
    mutated = list(outputs)
    mutated[k] = (code, json.dumps(doc))
    return mutated


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_outputs_pass_checks_and_mutations_fail(workload, workdir):
    for job in _first_jobs(workload, workdir, 2):
        dt, outputs, units, err = run.timed_job(workload, job, None)
        assert err is None and units > 0
        reference = check.digests(outputs)
        assert check.check_job(workload, job, outputs, reference) == units
        # any changed byte fails against the reference digests
        for k, (code, text) in enumerate(outputs):
            mutated = list(outputs)
            mutated[k] = (code, text + " ")
            with pytest.raises(check.CheckError):
                check.check_job(workload, job, mutated, reference)
        # without a reference, the structural checks catch a wrong fact
        with pytest.raises(check.CheckError):
            check.check_job(workload, job, _semantic_mutation(workload, outputs))


def test_mutated_output_makes_failed_frac_positive(monkeypatch, workdir, capsys):
    real = run.run_job

    def mutating(job, *a, **k):
        outputs = real(job, *a, **k)
        code, text = outputs[1]  # the verify report
        doc = json.loads(text)
        doc["pass"] = not doc["pass"]
        outputs[1] = (code, json.dumps(doc))
        return outputs

    monkeypatch.setattr(run, "run_job", mutating)
    monkeypatch.setattr(run, "MIN_JOBS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", workdir)
    assert run.main(["--workload", "audit_radical", "--seed", "4", "--seconds", "0.01"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tracing_leaves_output_digests_unchanged(workload, workdir):
    from exactdisc import cli, discretize, exactnum

    originals = (cli.main, discretize.pw_eval, exactnum.Radical.__mul__)
    jobs = _first_jobs(workload, workdir, 2)
    plain = [check.digests(run.timed_job(workload, j, None)[1]) for j in jobs]
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.main is not originals[0]
        traced = [check.digests(run.timed_job(workload, j, None)[1]) for j in jobs]
    finally:
        tr.uninstall()
    assert traced == plain
    assert (cli.main, discretize.pw_eval, exactnum.Radical.__mul__) == originals
    assert tr.total("cli.main", "calls") == sum(len(j.commands) for j in jobs)
    assert tr.total("exactnum.mul", "calls") > 0


def test_run_refuses_a_checkout_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "min_sweep"]) == 2
    assert capsys.readouterr().out == ""
