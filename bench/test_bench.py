"""Tests of the benchmark itself: seeding, the reference checker, the
tracer and the metric set.  They shrink every ladder to its smallest
rung, so they run in a few seconds; run them with

    PYTHONPATH=src python -m pytest -q bench
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times_from_spans  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


@pytest.fixture(scope="module")
def wb():
    return workloads.Workbench()


@pytest.fixture
def small(monkeypatch):
    """Every ladder cut to its smallest rung, one block per corpus."""
    for name, value in {
        "DECIDE_LADDER": ((1, 1), (2, 1)),
        "CORPUS_BLOCKS": {"decide": 1, "oracle": 1, "grammar": 1},
        "MEMBER_LADDER": ((12, 2),),
        "NCM_LADDER": (("ab", 4),),
        "DCM_LADDER": (4,),
        "SPEC_LADDER": (4,),
        "ACCEPT_LADDER": (("ncm", 6), ("dcm", 6)),
        "BOX_LADDER": (3,),
        "GRAMMAR_FAMILIES": ((2, 2, 1), (2, 2, 8)),
        "LENGTH_LADDER": (7,),
    }.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "MIN_PASSES", 1)


def corpus(wb, workload, seed, directory):
    os.makedirs(directory, exist_ok=True)
    return workloads.build_jobs(wb, workload, seed, str(directory))


def fingerprint(job):
    """A job's inputs, without the directory its documents were written to."""
    info = dict(job.info)
    if job.kind == "cli":
        info.pop("out", None)
        with open(job.args[0][1]) as f:
            inputs = f.read()
    else:
        inputs = repr(job.args)
    return job.kind, job.rung, job.label, repr(info), inputs


def outcome(wb, job):
    return workloads.describe(wb, job, workloads.call(wb, job))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(wb, small, tmp_path, workload):
    a = [fingerprint(j) for j in corpus(wb, workload, 5, tmp_path / "a")]
    b = [fingerprint(j) for j in corpus(wb, workload, 5, tmp_path / "b")]
    c = [fingerprint(j) for j in corpus(wb, workload, 6, tmp_path / "c")]
    assert a == b
    assert a != c


def test_checker_flags_wrong_verdict(wb, small, tmp_path):
    jobs = corpus(wb, "decide", 1, tmp_path)
    job = next(j for j in jobs if j.info.get("true"))
    out = outcome(wb, job)
    assert out.value.holds and reference.check(job, out, wb.fixtures) is None
    flipped = wb.counter.Verdict(job.info["rel"], False, None)
    planted = workloads.Outcome("ok", flipped, "")
    assert reference.check(job, planted, wb.fixtures) is not None


def test_checker_flags_wrong_count(wb, small, tmp_path):
    jobs = corpus(wb, "grammar", 1, tmp_path)
    job = next(j for j in jobs if j.info["argv"][:3] == ["audit", "--kind", "ambiguity"]
               and j.info["doc"] == "m221")
    out = outcome(wb, job)
    assert reference.check(job, out, wb.fixtures) is None
    rc, stdout, stderr = out.value
    assert "count 1 over" in stdout
    wrong = stdout.replace("count 1 over", "count 2 over")
    planted = workloads.Outcome("ok", (rc, wrong, stderr), "")
    assert reference.check(job, planted, wb.fixtures) is not None


def test_checker_flags_missing_word(wb, small, tmp_path):
    jobs = corpus(wb, "oracle", 1, tmp_path)
    job = next(j for j in jobs if j.kind == "ncm-enum")
    out = outcome(wb, job)
    assert reference.check(job, out, wb.fixtures) is None
    out.value.words.pop()
    assert reference.check(job, out, wb.fixtures) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_changes_no_answer(wb, small, tmp_path, workload):
    jobs = corpus(wb, workload, 2, tmp_path)
    member = wb.semilinear.member
    plain = [outcome(wb, j).text for j in jobs]
    with Tracer() as tracer:
        assert wb.etol.member is not member     # wrapped in every namespace
        traced = [outcome(wb, j).text for j in jobs]
    assert wb.semilinear.member is member and wb.etol.member is member
    assert traced == plain
    assert tracer.spans_dropped == 0 and tracer.calls
    from_spans = self_times_from_spans(tracer.spans())
    assert from_spans.keys() == tracer.self_time.keys()
    for name, t in tracer.self_time.items():
        assert from_spans[name] == pytest.approx(t, abs=1e-9)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_on_every_workload(wb, small, tmp_path, capsys, workload, trace):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    jobs = corpus(wb, workload, 1, tmp_path)
    args = argparse.Namespace(workload=workload, seed=1, seconds=0.0, trace=trace)
    result = run.measure(args, wb, jobs, 0.5, str(tmp_path / "out"))
    assert result["correct"] and result["attempted"] >= len(jobs) and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert "curve" in capsys.readouterr().out


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
