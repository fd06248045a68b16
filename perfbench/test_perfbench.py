"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench``)."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=HERE.parent, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_wrong_pinned_digest_fails_without_numbers(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(HERE.parent / "src", tmp_path / "src", ignore=ignore)
    (tmp_path / "perfbench" / "digests.json").write_text(
        json.dumps({"audit-cold": {"7": "0" * 64}}))
    out = bench("--workload", "audit-cold", "--seed", "7", "--seconds", "1",
                cwd=tmp_path)
    assert out.returncode == 1
    assert "WRONG OUTPUT" in out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}


def test_without_program_source_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "audit-cold", "--seed", "7", "--seconds", "1",
                cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


class _Mismatched:
    """A workload whose cold reference disagrees with its own output."""

    name = "mismatched"

    def setup(self, seed):
        return None

    def run(self, inputs):
        return "flock"

    def chunks(self, inputs):
        return [inputs]

    def merge(self, outputs):
        return outputs[0]

    def operations(self, inputs):
        return 1

    def failures(self, output):
        return 0

    def check(self, output):
        return []

    def digest(self, output):
        return output

    def reference(self, inputs):
        return "cold"


def test_cross_mode_mismatch_fails():
    runner = run.Runner(_Mismatched(), seed=0, pinned=None)
    runner.one_pass()
    with pytest.raises(run.CheckFailed):
        runner.cross_check()


def test_output_change_between_passes_fails():
    workload = _Mismatched()
    runner = run.Runner(workload, seed=0, pinned=None)
    runner.one_pass()
    workload.run = lambda inputs: "different"
    with pytest.raises(run.CheckFailed):
        runner.one_pass()


def test_self_times_add_up_to_the_root():
    rec = spans.SpanRecorder()
    leaf = rec.wrap("leaf", lambda: time.sleep(0.01))

    def middle():
        leaf()
        time.sleep(0.01)
        leaf()

    rec.span(spans.ROOT, rec.wrap("middle", middle))
    root = rec.spans[0]
    self_s = rec.self_times()
    assert rec.calls() == {spans.ROOT: 1, "middle": 1, "leaf": 2}
    assert sum(self_s.values()) == pytest.approx(
        root[spans.END] - root[spans.START])
    assert self_s["leaf"] >= 0.02 and self_s["middle"] >= 0.01
    assert self_s[spans.TRACER_BUCKET] > 0
    assert [r[spans.PARENT] for r in rec.spans] == [-1, 0, 1, 1]


def test_counter_callbacks_are_charged_to_the_tracer():
    rec = spans.SpanRecorder()
    leaf = rec.wrap("leaf", lambda: None,
                    after=lambda *_: time.sleep(0.02))
    rec.span(spans.ROOT, leaf)
    self_s = rec.self_times()
    assert self_s[spans.TRACER_BUCKET] >= 0.02
    assert self_s[spans.ROOT] < 0.01


def test_install_wraps_caller_names_and_undo_restores():
    run.import_program()
    import repro.audit.auditor as auditor
    from repro.checkpoint import Checkpoint
    before = (auditor.stable_line, Checkpoint.__dict__["capture"])
    undo = spans.install(spans.SpanRecorder())
    try:
        assert auditor.stable_line is not before[0]
        assert isinstance(Checkpoint.__dict__["capture"], classmethod)
    finally:
        undo()
    assert (auditor.stable_line, Checkpoint.__dict__["capture"]) == before


def test_reference_seconds_scale_with_the_gauge():
    ref = run.GAUGE_REF_S
    assert run.reference_seconds(2.0, [ref, ref]) == pytest.approx(2.0)
    # A host running the gauge 1.5x slower ran the work 1.5x slower too.
    assert run.reference_seconds(3.0, [1.5 * ref]) == pytest.approx(2.0)


def test_chunked_audit_merges_to_the_whole_campaign():
    from workloads import WORKLOADS
    run.import_program()
    workload = WORKLOADS["audit-cold"]
    inputs = workload.setup(11)
    inputs.schedules = inputs.schedules[:12]
    whole = workload.run(inputs)
    merged = workload.merge([workload.run(c)
                             for c in workload.chunks(inputs)])
    assert len(workload.chunks(inputs)) > 1
    assert workload.digest(merged) == workload.digest(whole)
