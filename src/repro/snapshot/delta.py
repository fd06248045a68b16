"""Incremental (delta) encoding of the journal and message-log sections.

Between two consecutive captures of one process the journals and the
shadow's suppressed-message log change by a handful of entries, yet the
seed pipeline re-pickled them whole every time — making checkpoint cost
O(journal size) instead of O(new entries).  This module computes the
difference of a section against the previous capture and replays it:

* a :class:`JournalDelta` is the records added, the keys whose
  ``validated`` flag flipped, the keys pruned/discarded, and the new
  pruning horizon;
* a :class:`LogDelta` is the entries appended past the previous
  capture's last sequence number plus the surviving prefix bound (the
  reclaim/clear effect) and the monitoring counter.

Capture-side *baselines* record just enough of the previous state to
diff against (per-key validity fingerprints; the log's sequence
numbers) — not a copy of the section.  A baseline is only valid for
the state the previous payload encodes, so the encoder refreshes it at
every capture and drops it entirely on restore (the full-section
fallback).

If the live section has changed in a way the delta language cannot
express (a message log whose sequence numbers restarted after
``clear()``), the diff functions return ``None`` and the encoder falls
back to a full section — correctness never depends on the delta being
representable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..journal import Journal, JournalRecord
from ..messages.log import LogEntry, MessageLog
from ..types import MessageKind

#: Sections that support delta encoding, in snapshot-assembly order.
DELTA_SECTIONS = ("journals", "msg_log")


def _pack_record(rec: JournalRecord) -> Tuple:
    """A journal record as a plain tuple — steady-state deltas are tiny
    and mostly overhead, so the wire form avoids pickling class
    references and field names for every payload."""
    return (rec.key, rec.kind.value, rec.sender, rec.receiver, rec.sn,
            rec.sent_dirty, rec.validated, rec.corrupt, rec.time,
            rec.taint_sn, rec.dsn)


def _unpack_record(data: Tuple) -> JournalRecord:
    (key, kind, sender, receiver, sn, sent_dirty, validated, corrupt,
     time, taint_sn, dsn) = data
    return JournalRecord(key=key, kind=MessageKind(kind), sender=sender,
                         receiver=receiver, sn=sn, sent_dirty=sent_dirty,
                         validated=validated, corrupt=corrupt, time=time,
                         taint_sn=taint_sn, dsn=dsn)


# ----------------------------------------------------------------------
# journals
# ----------------------------------------------------------------------
def _record_identity(rec: JournalRecord) -> Tuple:
    """Every field of a record except the mutable ``validated`` flag.

    A key whose identity changed between captures (discarded and
    re-added by recovery) is encoded as remove + add rather than
    trusting the stale base record.
    """
    return (rec.kind, rec.sender, rec.receiver, rec.sn, rec.sent_dirty,
            rec.corrupt, rec.time, rec.taint_sn, rec.dsn)


@dataclasses.dataclass(frozen=True)
class JournalBaseline:
    """Capture-side fingerprint of one journal at the previous capture."""

    ids: Dict[object, Tuple[bool, Tuple]]
    pruned_before: float

    @classmethod
    def of(cls, journal: Journal) -> "JournalBaseline":
        return cls(ids={key: (rec.validated, _record_identity(rec))
                        for key, rec in journal._records.items()},
                   pruned_before=journal.pruned_before)


@dataclasses.dataclass(frozen=True)
class JournalDelta:
    """The change of one journal since its baseline."""

    added: Tuple[JournalRecord, ...]
    revalidated: Tuple[object, ...]
    removed: Tuple[object, ...]
    pruned_before: float

    @property
    def entry_count(self) -> int:
        return len(self.added) + len(self.revalidated) + len(self.removed)

    def pack(self) -> Tuple:
        """The delta as plain tuples (the form that gets encoded)."""
        return (tuple(_pack_record(r) for r in self.added),
                self.revalidated, self.removed, self.pruned_before)

    @classmethod
    def unpack(cls, data: Tuple) -> "JournalDelta":
        added, revalidated, removed, pruned_before = data
        return cls(added=tuple(_unpack_record(t) for t in added),
                   revalidated=tuple(revalidated), removed=tuple(removed),
                   pruned_before=pruned_before)


def journal_delta(journal: Journal, base: JournalBaseline) -> JournalDelta:
    """Diff a live journal against its baseline."""
    added: List[JournalRecord] = []
    revalidated: List[object] = []
    removed: List[object] = []
    records = journal._records
    for key, (_, ident) in base.ids.items():
        rec = records.get(key)
        if rec is None or _record_identity(rec) != ident:
            removed.append(key)
    for key, rec in records.items():
        old = base.ids.get(key)
        if old is None or old[1] != _record_identity(rec):
            added.append(rec)
        elif rec.validated and not old[0]:
            revalidated.append(key)
    return JournalDelta(added=tuple(added), revalidated=tuple(revalidated),
                        removed=tuple(removed),
                        pruned_before=journal.pruned_before)


def apply_journal_delta(journal: Journal, delta: JournalDelta) -> Journal:
    """Replay a delta onto a base journal, returning a new journal.

    The base and its records are left untouched (the records dict is
    copied and a revalidated record is replaced by a validated copy),
    so a decoded value shared by auditor views can seed the next chain
    link, and a restore built from freshly decoded records stays
    private."""
    records = dict(journal._records)
    for key in delta.removed:
        records.pop(key, None)
    for rec in delta.added:
        # A re-added key moves to the end of the insertion order,
        # matching dict semantics in the live journal.
        records.pop(rec.key, None)
        records[rec.key] = rec
    for key in delta.revalidated:
        records[key] = dataclasses.replace(records[key], validated=True)
    out = Journal()
    out._records = records
    out.pruned_before = delta.pruned_before
    return out


# ----------------------------------------------------------------------
# message log
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LogBaseline:
    """Capture-side fingerprint of the message log: per entry, its
    sequence number (strictly increasing by construction) *and* the
    logged message's ``msg_id`` — so an entry added after a
    ``clear()``-restart that happens to reuse an old sequence number is
    never mistaken for the base entry it aliases."""

    ids: Tuple[Tuple[int, int], ...]

    @classmethod
    def of(cls, log: MessageLog) -> "LogBaseline":
        return cls(ids=tuple((entry.sn, entry.message.msg_id)
                             for entry in log))


@dataclasses.dataclass(frozen=True)
class LogDelta:
    """The change of the message log since its baseline.

    The live log evolves only by appending (increasing ``sn``),
    reclaiming a prefix, or clearing — so the new state is always "a
    suffix of the base, plus appended entries".  ``min_keep_sn`` bounds
    the surviving base suffix (``None`` keeps nothing).
    """

    min_keep_sn: Optional[int]
    appended: Tuple[LogEntry, ...]
    reclaimed_count: int

    @property
    def entry_count(self) -> int:
        return len(self.appended)

    def pack(self) -> Tuple:
        """The delta as plain tuples (the form that gets encoded);
        appended messages ship whole — a full section would carry them
        too."""
        return (self.min_keep_sn,
                tuple((e.sn, e.message, e.recipients) for e in self.appended),
                self.reclaimed_count)

    @classmethod
    def unpack(cls, data: Tuple) -> "LogDelta":
        min_keep_sn, appended, reclaimed_count = data
        return cls(min_keep_sn=min_keep_sn,
                   appended=tuple(LogEntry(sn=sn, message=message,
                                           recipients=recipients)
                                  for sn, message, recipients in appended),
                   reclaimed_count=reclaimed_count)


def log_delta(log: MessageLog, base: LogBaseline) -> Optional[LogDelta]:
    """Diff the live log against its baseline.

    Returns ``None`` when the delta language cannot express the change
    (sequence numbers restarted after a ``clear()``, whether or not
    they alias base entries), signalling the encoder to emit a full
    section.
    """
    base_last = base.ids[-1][0] if base.ids else None
    kept: List[Tuple[int, int]] = []
    appended: List[LogEntry] = []
    for entry in log:
        if base_last is not None and entry.sn <= base_last:
            kept.append((entry.sn, entry.message.msg_id))
        else:
            appended.append(entry)
    if kept and tuple(kept) != base.ids[len(base.ids) - len(kept):]:
        return None
    return LogDelta(min_keep_sn=kept[0][0] if kept else None,
                    appended=tuple(appended),
                    reclaimed_count=log.reclaimed_count)


def apply_log_delta(log: MessageLog, delta: LogDelta) -> MessageLog:
    """Replay a delta onto a base log, returning a new log; the base is
    left untouched (entries are never mutated, so they are shared)."""
    out = MessageLog()
    if delta.min_keep_sn is not None:
        out._entries = [e for e in log._entries if e.sn >= delta.min_keep_sn]
    out._entries.extend(delta.appended)
    out.reclaimed_count = delta.reclaimed_count
    return out
