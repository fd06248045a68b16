"""The auditor's read-only decode path: lazy ``SnapshotView`` sections,
the per-chain memo on ``SectionPayload``, and the guarantees that make
sharing decoded values sound — equivalence with the private
``restore_state`` decode, pickle invariance, and isolation from
restores and checkers."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.global_state import stable_line, view_from_checkpoint
from repro.analysis.invariants import check_system_line
from repro.app.component import AppState
from repro.audit.auditor import OnlineAuditor, line_summary
from repro.audit.campaign import build_audit_system
from repro.audit.config import AuditConfig
from repro.audit.schedule import FaultSchedule
from repro.checkpoint import Checkpoint
from repro.flock import ForkTemplate
from repro.host import ProcessSnapshot
from repro.journal import Journal
from repro.mdcd.state import MdcdState
from repro.messages.log import MessageLog
from repro.messages.message import Message
from repro.snapshot import SnapshotView
from repro.snapshot.sections import SnapshotEncoder
from repro.types import CheckpointKind, MessageKind, ProcessId
from repro.warmstart import capture

FIELDS = [f.name for f in dataclasses.fields(ProcessSnapshot)]

SMALL = AuditConfig(scheme="coordinated", seed=11, schedules=8,
                    horizon=120.0, tb_interval=20.0)


def make_msg(sn, t=0.0):
    m = Message(kind=MessageKind.INTERNAL, sender=ProcessId("A"),
                receiver=ProcessId("B"), sn=sn, dirty_bit=1)
    m.send_time = t
    return m


def assert_view_matches_restore(checkpoint, expected=None):
    view = SnapshotView(checkpoint.payload)
    restored = checkpoint.restore_state()
    for name in FIELDS:
        assert getattr(view, name) == getattr(restored, name), name
        if expected is not None:
            assert getattr(view, name) == getattr(expected, name), name
    return view


def all_checkpoints(system):
    out = []
    for proc in system.process_list():
        out.extend(proc.node.stable._chain.get(proc.process_id, ()))
        latest = proc.volatile_checkpoint()
        if latest is not None:
            out.append(latest)
    return out


def read_everything(checkpoints):
    """Decode every section of every checkpoint through views."""
    for checkpoint in checkpoints:
        view = view_from_checkpoint(checkpoint)
        for name in FIELDS:
            getattr(view.snapshot, name)


def memo_count(checkpoints):
    return sum(1 for c in checkpoints for p in c.payload.sections
               if p._memo is not None)


#: One mutation step of the live journals/log between captures.
_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(0, 1)),
    st.tuples(st.just("validate"), st.integers(0, 1), st.integers(0, 60)),
    st.tuples(st.just("prune"), st.integers(0, 1), st.floats(0.0, 60.0)),
    st.tuples(st.just("discard"), st.integers(0, 1), st.integers(0, 99)),
    st.tuples(st.just("reclaim"), st.integers(0, 60)),
    st.just(("clear",)),                    # sn restart -> full fallback
    st.just(("capture",)),
    st.just(("recover",)),                  # restore + encoder reset
), max_size=40)


class TestViewEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_ops, st.integers(2, 4), st.data())
    def test_views_equal_restore_state_in_any_read_order(
            self, ops, max_chain, data):
        """Random capture sequences, payloads decoded in a random order
        (old-after-new and repeats included): every section a view
        reads equals ``restore_state()`` and the captured state."""
        encoder = SnapshotEncoder(max_chain=max_chain)
        journals = [Journal(), Journal()]
        log = MessageLog()
        counter = {"key": 1, "log_sn": 1}

        def snapshot():
            return ProcessSnapshot(
                app_state=AppState(value=counter["key"]), mdcd=MdcdState(),
                sn_value=counter["key"], dedup_seen={counter["key"]},
                unacked=[], journal_sent=journals[0],
                journal_recv=journals[1], msg_log=log, cursor=0)

        captured = []
        for op in ops + [("capture",)]:
            if op[0] == "add":
                k = counter["key"]
                msg = make_msg(k, t=float(k))
                journals[op[1]].add(msg, validated=False, time=float(k))
                if op[1] == 0:
                    log.append(counter["log_sn"], msg)
                    counter["log_sn"] += 1
                counter["key"] += 1
            elif op[0] == "validate":
                journals[op[1]].mark_validated(ProcessId("A"), up_to_sn=op[2])
            elif op[0] == "prune":
                journals[op[1]].prune_validated_before(op[2])
            elif op[0] == "discard":
                keys = journals[op[1]].keys()
                if keys:
                    journals[op[1]].discard([keys[op[2] % len(keys)]])
            elif op[0] == "reclaim":
                log.reclaim_up_to(op[1])
            elif op[0] == "clear":
                log.clear()
                counter["log_sn"] = 1
            elif op[0] == "capture":
                checkpoint = Checkpoint.capture(
                    ProcessId("A"), CheckpointKind.TYPE_1, snapshot(),
                    taken_at=0.0, work_done=0.0, encoder=encoder)
                captured.append((checkpoint, copy.deepcopy(snapshot())))
            elif op[0] == "recover" and captured:
                restored = captured[-1][0].restore_state()
                journals = [restored.journal_sent, restored.journal_recv]
                log = restored.msg_log
                counter["log_sn"] = (log._entries[-1].sn + 1
                                     if log._entries else 1)
                encoder.reset()

        n = len(captured)
        order = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
        order += list(range(n)) + list(reversed(range(n))) + [n - 1, n - 1]
        held = []
        for idx in order:
            checkpoint, expected = captured[idx]
            held.append((assert_view_matches_restore(checkpoint, expected),
                         expected))
        # Values a view already handed out never change under later
        # reads of the same chain (copy-on-apply).
        for view, expected in held:
            for name in FIELDS:
                assert getattr(view, name) == getattr(expected, name), name

    def test_forward_reads_keep_one_memo_per_chain(self):
        """Reading a chain in capture order hands the decoded value
        down the chain: only the newest link holds it, and every link's
        revalidations, appends and reclaims leave the values earlier
        views already hold unchanged."""
        encoder = SnapshotEncoder(max_chain=8)
        journal = Journal()
        log = MessageLog()
        checkpoints, expected = [], []
        for k in range(1, 6):
            journal.add(make_msg(k), validated=False, time=float(k))
            journal.mark_validated(ProcessId("A"), up_to_sn=k - 1)
            log.append(k, make_msg(k))
            log.reclaim_up_to(k - 2)
            state = ProcessSnapshot(
                app_state=AppState(), mdcd=MdcdState(), sn_value=k,
                dedup_seen=set(), unacked=[], journal_sent=journal,
                journal_recv=Journal(), msg_log=log, cursor=0)
            checkpoints.append(Checkpoint.capture(
                ProcessId("A"), CheckpointKind.TYPE_1, state, taken_at=0.0,
                work_done=0.0, encoder=encoder))
            expected.append(copy.deepcopy(state))
        views = [assert_view_matches_restore(c, e)
                 for c, e in zip(checkpoints, expected)]
        holders = [c for c in checkpoints
                   if c.payload.get("journals")._memo is not None]
        assert holders == [checkpoints[-1]]
        for view, state in zip(views, expected):
            for name in FIELDS:
                assert getattr(view, name) == getattr(state, name), name

    def test_audit_reads_never_decode_the_message_log(self):
        system = build_audit_system(SMALL, FaultSchedule(
            label="lazy", system_seed=4242, origin="test"))
        auditor = OnlineAuditor(system, fail_fast=False)
        system.run()
        auditor.finalize()
        assert auditor.epochs_checked > 0
        checkpoints = all_checkpoints(system)
        assert any(c.payload.get("journals")._memo is not None
                   for c in checkpoints)
        assert all(c.payload.get("msg_log")._memo is None
                   for c in checkpoints)


class TestPickleInvariance:
    """Decoding through views must leave every serialized form of the
    system byte-identical: the memo never travels."""

    def _system(self):
        system = build_audit_system(SMALL, FaultSchedule(
            label="pickle", system_seed=4242, origin="test"))
        system.run(until=50.0)
        return system

    def test_checkpoint_pickles_identically_after_decode(self):
        system = self._system()
        checkpoints = all_checkpoints(system)
        before = [pickle.dumps(c) for c in checkpoints]
        read_everything(checkpoints)
        assert memo_count(checkpoints) > 0
        assert [pickle.dumps(c) for c in checkpoints] == before

    def test_image_capture_identical_after_decode(self):
        system = self._system()
        before = capture(system).payload
        read_everything(all_checkpoints(system))
        assert memo_count(all_checkpoints(system)) > 0
        assert capture(system).payload == before

    def test_fork_template_dump_identical_after_decode(self):
        system = build_audit_system(SMALL, FaultSchedule(
            label="pickle", system_seed=4242, origin="test"))
        system.run(until=30.0)
        template = ForkTemplate(system, None)
        # Run past the template's last registration: payloads captured
        # from here on travel inside the dump, not as table references.
        system.run(until=110.0)
        before = template.dump()
        read_everything(all_checkpoints(system))
        shared = template.context._index_by_id
        assert any(p._memo is not None and id(p) not in shared
                   for c in all_checkpoints(system)
                   for p in c.payload.sections)
        template._dumps.clear()
        assert template.dump() == before


class TestReadOnlyIsolation:
    def test_restores_and_checkers_leave_shared_values_untouched(self):
        system = build_audit_system(SMALL, FaultSchedule(
            label="isolation", system_seed=4242, origin="test"))
        system.run()
        line = stable_line(system)
        assert line
        for view in line.values():
            view.snapshot.journal_sent      # decode into the memo
        checkpoints = [proc.node.stable.peek(proc.process_id)
                       for proc in system.process_list()
                       if proc.process_id in line]
        memos = [c.payload.get("journals")._memo for c in checkpoints]
        assert all(memo is not None for memo in memos)
        memo_bytes = [pickle.dumps(memo) for memo in memos]

        # The checkers and the finding summary only read.
        first = (check_system_line(line), line_summary(line))
        assert [pickle.dumps(m) for m in memos] == memo_bytes
        fresh = stable_line(system)
        assert (check_system_line(fresh), line_summary(fresh)) == first
        assert [pickle.dumps(m) for m in memos] == memo_bytes

        # A protocol restore gets a private copy: mutating it reaches
        # neither the memo nor a fresh view.
        for checkpoint in checkpoints:
            restored = checkpoint.restore_state()
            for journal in (restored.journal_sent, restored.journal_recv):
                for record in journal.records():
                    record.validated = not record.validated
            restored.app_state.value += 1
            restored.app_state.corrupt = not restored.app_state.corrupt
            assert_view_matches_restore(checkpoint)
        assert [pickle.dumps(m) for m in memos] == memo_bytes
        assert line_summary(stable_line(system)) == first[1]

    def test_views_refuse_attribute_writes(self):
        system = build_audit_system(SMALL, FaultSchedule(
            label="readonly", system_seed=4242, origin="test"))
        system.run(until=50.0)
        view = view_from_checkpoint(all_checkpoints(system)[0])
        with pytest.raises(AttributeError):
            view.snapshot.cursor = 0
