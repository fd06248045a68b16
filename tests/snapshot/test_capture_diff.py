"""The capture side of the snapshot pipeline: the identity-first journal
and log diffs against a reference full diff, ``taint_map`` surviving a
delta chain, and checkpoint isolation now that capture hands the codec
the live objects instead of copies."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.audit.campaign import build_audit_system
from repro.audit.config import AuditConfig
from repro.audit.schedule import FaultSchedule
from repro.checkpoint import Checkpoint
from repro.journal import Journal
from repro.messages.log import MessageLog
from repro.messages.message import Message
from repro.snapshot import SnapshotView, available_codecs, get_codec
from repro.snapshot.sections import SnapshotEncoder, section_plan
from repro.host import ProcessSnapshot
from repro.app.component import AppState
from repro.mdcd.state import MdcdState
from repro.types import CheckpointKind, MessageKind, ProcessId

FIELDS = [f.name for f in dataclasses.fields(ProcessSnapshot)]


def make_msg(sn, taint=None):
    m = Message(kind=MessageKind.INTERNAL, sender=ProcessId("A"),
                receiver=ProcessId("B"), sn=sn, dirty_bit=1,
                taint_map=taint)
    m.send_time = float(sn)
    return m


def record_fields(journal):
    return [dataclasses.asdict(r) for r in journal._records.values()]


# ----------------------------------------------------------------------
# the reference diff: every record fingerprinted, every capture
# ----------------------------------------------------------------------
def ref_identity(rec):
    return (rec.kind, rec.sender, rec.receiver, rec.sn, rec.sent_dirty,
            rec.corrupt, rec.time, rec.taint_sn, rec.taint_map, rec.dsn)


def ref_pack(rec):
    packed = (rec.key, rec.kind.value, rec.sender, rec.receiver, rec.sn,
              rec.sent_dirty, rec.validated, rec.corrupt, rec.time,
              rec.taint_sn, rec.dsn)
    return packed + (rec.taint_map,) if rec.taint_map is not None else packed


def ref_journal_base(journal):
    return {key: (rec.validated, ref_identity(rec))
            for key, rec in journal._records.items()}


def ref_journal_delta(journal, base):
    records = journal._records
    removed = tuple(key for key, (_, ident) in base.items()
                    if key not in records
                    or ref_identity(records[key]) != ident)
    added, revalidated = [], []
    for key, rec in records.items():
        old = base.get(key)
        if old is None or old[1] != ref_identity(rec):
            added.append(ref_pack(rec))
        elif rec.validated and not old[0]:
            revalidated.append(key)
    return (tuple(added), tuple(revalidated), removed, journal.pruned_before)


def ref_log_base(log):
    return tuple((e.sn, e.message.msg_id) for e in log)


def ref_log_delta(log, base):
    last = base[-1][0] if base else None
    kept = tuple((e.sn, e.message.msg_id) for e in log
                 if last is not None and e.sn <= last)
    if kept and kept != base[len(base) - len(kept):]:
        return None
    return (kept[0][0] if kept else None,
            tuple((e.sn, e.message, e.recipients) for e in log
                  if last is None or e.sn > last),
            log.reclaimed_count)


#: One mutation step of the live journals/log between captures.
_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 1), st.booleans()),
    st.tuples(st.just("validate"), st.integers(0, 1), st.integers(0, 60)),
    st.tuples(st.just("prune"), st.integers(0, 1), st.floats(0.0, 60.0)),
    st.tuples(st.just("discard"), st.integers(0, 1), st.integers(0, 99)),
    st.tuples(st.just("readd"), st.integers(0, 1), st.integers(0, 99),
              st.booleans()),
    st.tuples(st.just("reclaim"), st.integers(0, 60)),
    # sn restart: the old tail may be aliased by new messages
    st.tuples(st.just("clear"), st.integers(1, 4)),
    st.just(("capture",)),
    st.just(("capture",)),
    st.just(("recover",)),                  # restore + encoder reset
    st.just(("pickle-together",)),          # warm-resume shape
    st.just(("pickle-apart",)),             # fork shape: foreign baseline
), max_size=40)


class TestDiffMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(_ops, st.integers(2, 5))
    # a revalidation after a delta capture
    @example([("add", 0, False), ("capture",), ("capture",),
              ("validate", 0, 60), ("capture",)], 5)
    # a discarded key re-added with other fields
    @example([("add", 1, True), ("capture",), ("readd", 1, 0, True),
              ("capture",)], 5)
    # a foreign baseline (the flock-fork shape): revalidation, adds and
    # log appends found by comparing fields
    @example([("add", 0, True), ("add", 0, False), ("validate", 0, 1),
              ("capture",), ("pickle-apart",), ("validate", 0, 60),
              ("add", 0, True), ("capture",)], 5)
    # new messages after a clear() alias the base's sequence numbers
    @example([("add", 0, False)] * 3 + [("capture",), ("clear", 2),
              ("add", 0, False), ("add", 0, False), ("capture",)], 5)
    def test_packed_deltas_equal_the_reference_full_diff(self, ops,
                                                         max_chain):
        encoder = SnapshotEncoder(max_chain=max_chain)
        journals = [Journal(), Journal()]
        log = MessageLog()
        sent = {}                   # key -> message, for identical re-adds
        counter = {"key": 1, "log_sn": 1}
        ref = {"journals": None, "log": None}
        prev = {}
        captured = []

        def snapshot():
            return ProcessSnapshot(
                app_state=AppState(), mdcd=MdcdState(), sn_value=0,
                dedup_seen=set(), unacked=[], journal_sent=journals[0],
                journal_recv=journals[1], msg_log=log, cursor=0)

        for op in ops + [("capture",)]:
            if op[0] == "add":
                k = counter["key"]
                msg = make_msg(k, taint={"C1_act": k} if op[2] else None)
                rec = journals[op[1]].add(msg, validated=False, time=float(k))
                sent[rec.key] = (msg, op[1])
                if op[1] == 0:
                    log.append(counter["log_sn"], msg)
                    counter["log_sn"] += 1
                counter["key"] += 1
            elif op[0] == "validate":
                journals[op[1]].mark_validated(ProcessId("A"), up_to_sn=op[2])
            elif op[0] == "prune":
                journals[op[1]].prune_validated_before(op[2])
            elif op[0] in ("discard", "readd"):
                keys = journals[op[1]].keys()
                if not keys:
                    continue
                key = keys[op[2] % len(keys)]
                old = journals[op[1]].get(key)
                journals[op[1]].discard([key])
                if op[0] == "readd":   # a new record: identical, or not
                    journals[op[1]].add(sent[key][0], validated=old.validated,
                                        time=old.time + op[3])
                    assert journals[op[1]].get(key) is not old
            elif op[0] == "reclaim":
                log.reclaim_up_to(op[1])
            elif op[0] == "clear":
                log.clear()
                counter["log_sn"] = op[1]
            elif op[0] == "pickle-together":
                encoder, journals, log = pickle.loads(
                    pickle.dumps((encoder, journals, log)))
            elif op[0] == "pickle-apart":
                encoder = pickle.loads(pickle.dumps(encoder))
                journals, log = pickle.loads(pickle.dumps((journals, log)))
            elif op[0] == "recover" and captured:
                restored = captured[-1].restore_state()
                journals = [restored.journal_sent, restored.journal_recv]
                log = restored.msg_log
                counter["log_sn"] = (log._entries[-1].sn + 1
                                     if log._entries else 1)
                encoder.reset()
                ref = {"journals": None, "log": None}
                prev = {}
            elif op[0] == "capture":
                state = snapshot()
                checkpoint = Checkpoint.capture(
                    ProcessId("A"), CheckpointKind.TYPE_1, state,
                    taken_at=0.0, work_done=0.0, encoder=encoder)
                captured.append(checkpoint)
                expect = {}
                if ref["journals"] is not None:
                    expect["journals"] = {
                        "journal_sent": ref_journal_delta(
                            journals[0], ref["journals"][0]),
                        "journal_recv": ref_journal_delta(
                            journals[1], ref["journals"][1])}
                if ref["log"] is not None:
                    delta = ref_log_delta(log, ref["log"])
                    expect["msg_log"] = (None if delta is None
                                         else {"msg_log": delta})
                for section in ("journals", "msg_log"):
                    payload = checkpoint.payload.get(section)
                    tip = prev.get(section)
                    want = expect.get(section)
                    delta_due = (tip is not None and want is not None
                                 and tip.depth + 1 < max_chain)
                    assert payload.full is not delta_due, section
                    if delta_due:
                        got = get_codec(payload.codec_id).decode(payload.data)
                        assert got == want, section
                    prev[section] = payload
                ref = {"journals": [ref_journal_base(j) for j in journals],
                       "log": ref_log_base(log)}
        for checkpoint in captured:
            checkpoint.restore_state()   # every chain still replays


class TestTaintMapSurvivesDeltas:
    def test_one_record_delta_round_trip(self):
        encoder = SnapshotEncoder()
        journal = Journal()
        journal.add(make_msg(1), validated=True, time=1.0)

        def capture():
            return Checkpoint.capture(
                ProcessId("A"), CheckpointKind.TYPE_1, ProcessSnapshot(
                    app_state=AppState(), mdcd=MdcdState(), sn_value=0,
                    dedup_seen=set(), unacked=[], journal_sent=journal,
                    journal_recv=Journal(), msg_log=MessageLog(), cursor=0),
                taken_at=0.0, work_done=0.0, encoder=encoder)

        capture()
        journal.add(make_msg(2, taint={"C1_act": 5}), validated=False,
                    time=2.0)
        checkpoint = capture()
        assert not checkpoint.payload.get("journals").full
        restored = checkpoint.restore_state().journal_sent
        assert restored.get(journal.keys()[-1]).taint_map == {"C1_act": 5}

    def test_delta_chained_restores_equal_captured_journals_on_2x2(
            self, monkeypatch):
        """Every checkpoint of a 2x2 run restores the journals it
        captured, field for field — ``taint_map`` included."""
        config = AuditConfig(scheme="coordinated", seed=3, schedules=1,
                             horizon=240.0, tb_interval=20.0,
                             topology="2x2")
        system = build_audit_system(config, FaultSchedule(
            label="taint", system_seed=5, origin="test"))
        captured = []
        original = Checkpoint.__dict__["capture"].__func__

        def recording(cls, *args, **kwargs):
            checkpoint = original(cls, *args, **kwargs)
            state = kwargs["state"]
            captured.append((checkpoint, record_fields(state.journal_sent),
                             record_fields(state.journal_recv)))
            return checkpoint

        monkeypatch.setattr(Checkpoint, "capture", classmethod(recording))
        system.run()
        chained = [c for c, _, _ in captured
                   if not c.payload.get("journals").full]
        tainted = [c for c, sent, recv in captured
                   if any(r["taint_map"] for r in sent + recv)]
        assert chained and set(map(id, chained)) & set(map(id, tainted))
        for checkpoint, sent, recv in captured:
            restored = checkpoint.restore_state()
            assert record_fields(restored.journal_sent) == sent
            assert record_fields(restored.journal_recv) == recv


class TestCaptureIsolation:
    @pytest.mark.parametrize("codec", available_codecs())
    def test_mutating_live_state_leaves_checkpoints_unchanged(self, codec):
        """Capture hands the codec the live objects; a checkpoint must
        still decode to the state at capture time after every live
        object it referenced changed."""
        config = AuditConfig(scheme="coordinated", seed=11, schedules=1,
                             horizon=120.0, tb_interval=20.0)
        system = build_audit_system(config, FaultSchedule(
            label="iso", system_seed=4242, origin="test"))
        system.run()
        proc = next(p for p in system.process_list()
                    if len(p.journal_sent) or len(p.journal_recv))
        proc.mdcd.dirty_sources.add(ProcessId("P2"))
        proc.mdcd.vr_map = {"C1_act": 3}
        proc.mdcd.taint_map = {"C1_act": 4}
        proc.msg_log.append(10_000, make_msg(10_000))
        checkpoints, expected = [], []
        for _ in range(2):      # a full capture, then a delta-chained one
            checkpoints.append(Checkpoint.capture(
                proc.process_id, CheckpointKind.TYPE_1, proc.make_snapshot(),
                taken_at=0.0, work_done=0.0, codec=codec,
                encoder=proc.snapshot_encoder))
            expected.append(copy.deepcopy(proc.make_snapshot()))
            proc.journal_sent.add(make_msg(20_000 + len(checkpoints)),
                                  validated=False, time=1.0)
        assert not checkpoints[1].payload.get("journals").full

        proc.component.state.value += 1
        proc.component.state.corrupt = not proc.component.state.corrupt
        proc.mdcd.dirty_bit = 1 - proc.mdcd.dirty_bit
        proc.mdcd.dirty_sources.add(ProcessId("P9"))
        proc.mdcd.vr_map["C1_act"] = 99
        proc.mdcd.taint_map["C2_act"] = 7
        for journal in (proc.journal_sent, proc.journal_recv):
            for rec in journal._records.values():
                rec.validated = True
            journal.discard(journal.keys()[:1])
            journal.pruned_before += 1.0
        proc.msg_log.append(10_001, make_msg(10_001))
        proc.msg_log.reclaim_up_to(10_000)

        for checkpoint, state in zip(checkpoints, expected):
            restored = checkpoint.restore_state()
            view = SnapshotView(checkpoint.payload)
            for name in FIELDS:
                assert getattr(restored, name) == getattr(state, name), name
                assert getattr(view, name) == getattr(state, name), name


def test_encoder_and_view_share_one_section_table():
    plan = section_plan()
    assert plan.cls is ProcessSnapshot
    assert [name for name, _ in plan.sections] == [
        "app", "mdcd", "journals", "msg_log", "counters"]
    assert {f: s for s, fields in plan.sections for f in fields} \
        == plan.section_of
    assert set(plan.section_of) == set(FIELDS)
