"""Sectioned snapshot payloads and the per-process incremental encoder.

A :class:`~repro.host.ProcessSnapshot` is not one opaque blob: its
parts change at very different rates (the app state every step, the
journals once per message, the MDCD knowledge once per validation) and
answer different cost questions.  The pipeline therefore splits every
capture into independently-encoded *sections*:

========= ==========================================================
section   snapshot fields
========= ==========================================================
app       ``app_state`` (declares ``snapshot_section = "app"``)
mdcd      ``mdcd``
journals  ``journal_sent``, ``journal_recv``
msg_log   ``msg_log``
counters  everything else (sequence counter, dedup set, unacked
          messages, workload cursor, per-destination counters)
========= ==========================================================

Membership is *declared by the state types themselves* (a
``snapshot_section`` class attribute — see :class:`~repro.app
.component.AppState`, :class:`~repro.mdcd.state.MdcdState`,
:class:`~repro.journal.Journal`, :class:`~repro.messages.log
.MessageLog`); snapshot fields whose annotated type declares none land
in ``counters``.  :func:`section_plan` reads the declarations off
``ProcessSnapshot``'s annotations once, and the encoder and
:class:`SnapshotView` share that table.  Each section value is the
``{field name: value}`` dict, so decoding reassembles a snapshot by
merging sections — new snapshot fields need no pipeline change.  Any
other state encodes as one opaque section.

:class:`SnapshotEncoder` (one per process) additionally encodes the
``journals`` and ``msg_log`` sections of steady-state captures as
deltas against the previous capture (see :mod:`~repro.snapshot.delta`),
emitting a full section on first capture, after a restore, when the
delta language cannot express the change, or every ``max_chain``
captures (bounding restore replay length and the retained chain).

Two decode paths read a payload back, through one copy-on-apply chain
replay.  :func:`decode_payload` (behind ``Checkpoint.restore_state``)
builds a private, mutable ``ProcessSnapshot`` by full chain replay —
what a protocol restore needs.  :class:`SnapshotView` is the auditor's
read-only path: it decodes a section on first access, and
:func:`read_section` memoizes a delta-capable section's value on its
:class:`SectionPayload`, one decoded value per chain.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple, Union

from .codec import Codec, get_codec
from .delta import (
    DELTA_SECTIONS,
    JournalBase,
    LogBase,
    apply_journal_delta,
    apply_log_delta,
    journal_base,
    journal_delta,
    log_base,
    log_delta,
)

#: Canonical section order (stable across runs; payload tuples and
#: reports follow it).
SECTION_ORDER = ("app", "mdcd", "journals", "msg_log", "counters")

#: Section name for opaque (non-``ProcessSnapshot``) captures.
OPAQUE_SECTION = "state"


class SectionPlan(NamedTuple):
    """Where each ``ProcessSnapshot`` field is encoded, computed once
    from the fields' declared types (a ``snapshot_section`` class
    attribute; undeclared fields go to ``counters``)."""

    #: The snapshot class the plan describes.
    cls: type
    #: ``(section, field names)`` in :data:`SECTION_ORDER`, fields in
    #: declaration order, empty sections left out.
    sections: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Each field's section (read-only).
    section_of: Mapping[str, str]


@functools.lru_cache(maxsize=None)
def section_plan() -> SectionPlan:
    """The one field -> section table, shared by the encoder and
    :class:`SnapshotView`."""
    from ..host import ProcessSnapshot  # deferred: host imports this package
    hints = typing.get_type_hints(ProcessSnapshot)
    section_of = {}
    for field in dataclasses.fields(ProcessSnapshot):
        declared = getattr(hints[field.name], "snapshot_section", None)
        section_of[field.name] = (declared if declared in SECTION_ORDER
                                  else "counters")
    sections = tuple(
        (name, tuple(f for f, s in section_of.items() if s == name))
        for name in SECTION_ORDER)
    return SectionPlan(cls=ProcessSnapshot,
                       sections=tuple(p for p in sections if p[1]),
                       section_of=types.MappingProxyType(section_of))


@dataclasses.dataclass(frozen=True)
class SectionPayload:
    """One encoded section of one checkpoint.

    ``data`` is opaque to everything but the codec identified by
    ``codec_id``.  ``nbytes`` is the accounted byte cost (see
    :meth:`~repro.snapshot.codec.Codec.measure`).  A delta payload
    (``full=False``) chains to the payload it was diffed against;
    ``depth`` counts the chain links back to the nearest full section.
    """

    section: str
    codec_id: str
    data: Any
    nbytes: int
    full: bool = True
    base: Optional["SectionPayload"] = None
    depth: int = 0

    #: Decoded value shared by read-only readers (:func:`read_section`);
    #: a cache on the instance, never a field, never pickled.
    _memo = None

    def __getstate__(self) -> Dict[str, Any]:
        """The fields without the memo, so checkpoint, image and fork
        dump bytes never depend on what an auditor has read."""
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state


@dataclasses.dataclass(frozen=True)
class SnapshotPayload:
    """The encoded form of one checkpoint's state: a tuple of section
    payloads (``SECTION_ORDER``), or a single opaque section for
    non-snapshot captures."""

    sections: Tuple[SectionPayload, ...]

    @property
    def nbytes(self) -> int:
        """Total accounted bytes across sections (the checkpoint-cost
        proxy stores aggregate)."""
        return sum(p.nbytes for p in self.sections)

    @property
    def opaque(self) -> bool:
        """Whether this wraps an arbitrary object rather than a
        sectioned process snapshot."""
        return (len(self.sections) == 1
                and self.sections[0].section == OPAQUE_SECTION)

    def section_sizes(self) -> Dict[str, int]:
        """Accounted bytes per section (insertion order =
        ``SECTION_ORDER``)."""
        return {p.section: p.nbytes for p in self.sections}

    def get(self, section: str) -> Optional[SectionPayload]:
        """The payload of one section, or ``None``."""
        for payload in self.sections:
            if payload.section == section:
                return payload
        return None

    def replace_section(self, section: str, value: Any,
                        codec: Union[str, Codec, None] = None
                        ) -> "SnapshotPayload":
        """A copy with one section re-encoded (full) from ``value``.

        Used when a consumer rewrites part of a captured state (the
        ``save_unacked`` ablation clears the unacked list) without
        re-encoding — or breaking the delta chains of — the others.
        """
        out = []
        for payload in self.sections:
            if payload.section == section:
                chosen = get_codec(codec if codec is not None
                                   else payload.codec_id)
                data, nbytes = encode_value(value, chosen)
                payload = SectionPayload(section=section,
                                         codec_id=chosen.codec_id,
                                         data=data, nbytes=nbytes)
            out.append(payload)
        return SnapshotPayload(sections=tuple(out))


def encode_value(value: Any, codec: Codec) -> Tuple[Any, int]:
    """Encode one value, returning ``(data, accounted bytes)``."""
    data = codec.encode(value)
    return data, codec.measure(value, data)


def split_sections(snapshot: Any) -> Optional[Dict[str, Dict[str, Any]]]:
    """A ``ProcessSnapshot``'s fields grouped by section
    (:func:`section_plan`), or ``None`` for any other state — those
    encode as one opaque section."""
    plan = section_plan()
    if type(snapshot) is not plan.cls:
        return None
    values = snapshot.__dict__
    return {name: {field: values[field] for field in fields}
            for name, fields in plan.sections}


def encode_full(state: Any, codec: Union[str, Codec, None] = None
                ) -> SnapshotPayload:
    """One-shot full encoding (no incremental state): a
    ``ProcessSnapshot`` is sectioned; anything else becomes a single
    opaque section — the path arbitrary test states take."""
    return SnapshotEncoder(incremental=False).encode_snapshot(state, codec)


def _replay_chain(payload: SectionPayload, from_memo: bool) -> Dict[str, Any]:
    """Decode one section, replaying its delta chain onto the nearest
    full base.  Links apply copy-on-write (see
    :func:`~repro.snapshot.delta.apply_journal_delta`), so the base
    value is never changed.

    With ``from_memo`` the replay starts instead at the nearest
    ancestor holding a memo (:func:`read_section`) and takes that memo
    over; without it (the protocol-restore path) every record is
    freshly decoded, so the result is private and mutable.
    """
    chain = []
    node = payload
    while not node.full and not (from_memo and node._memo is not None):
        chain.append(node)
        node = node.base
        if node is None:
            raise ValueError(f"delta chain of section {payload.section!r} "
                             "has no full base payload")
    value = node._memo if from_memo else None
    if value is None:
        value = get_codec(node.codec_id).decode(node.data)
    elif chain:
        object.__setattr__(node, "_memo", None)
    for link in reversed(chain):
        value = _apply_section_delta(
            link.section, value, get_codec(link.codec_id).decode(link.data))
    return value


def _apply_section_delta(section: str, base_value: Dict[str, Any],
                         delta_value: Dict[str, Any]) -> Dict[str, Any]:
    """Replay one decoded delta onto a decoded base value, leaving the
    base untouched.  Deltas travel in their packed (plain-tuple) wire
    form, so dispatch is by section name, not payload type."""
    out = dict(base_value)
    for field, packed in delta_value.items():
        if section == "journals":
            out[field] = apply_journal_delta(out[field], packed)
        elif section == "msg_log":
            out[field] = apply_log_delta(out[field], packed)
        else:  # a field the delta encoder chose to ship whole
            out[field] = packed
    return out


def read_section(payload: SectionPayload) -> Dict[str, Any]:
    """The decoded value of one section for read-only use.

    Sections outside :data:`DELTA_SECTIONS` decode afresh.  A
    delta-chained section resolves from its nearest ancestor that
    already holds a decoded value (or from the full base), then takes
    over that ancestor's memo: each chain keeps at most one decoded
    value alive, on the payload read last, and reading payloads in
    capture order replays every link once.  The value is shared with
    every later reader of ``payload`` and must not be mutated —
    :func:`decode_payload` is the private, mutable path.
    """
    if payload.section not in DELTA_SECTIONS:
        return get_codec(payload.codec_id).decode(payload.data)
    if payload._memo is None:
        object.__setattr__(payload, "_memo",
                           _replay_chain(payload, from_memo=True))
    return payload._memo


def decode_payload(payload: SnapshotPayload) -> Any:
    """Decode a payload back into the captured state.

    Opaque payloads return the stored object; sectioned payloads merge
    their section dicts into a fresh
    :class:`~repro.host.ProcessSnapshot`.
    """
    if payload.opaque:
        return get_codec(payload.sections[0].codec_id).decode(
            payload.sections[0].data)
    fields: Dict[str, Any] = {}
    for section_payload in payload.sections:
        fields.update(_replay_chain(section_payload, from_memo=False))
    from ..host import ProcessSnapshot  # deferred: host imports this package
    return ProcessSnapshot(**fields)


class SnapshotView:
    """A read-only ``ProcessSnapshot`` stand-in that decodes lazily.

    The first read of a field decodes the section holding it and binds
    all of that section's fields on the view, so later reads are plain
    attribute hits and sections nobody reads (the invariant checkers
    never read ``msg_log``) are never decoded.  ``journals`` and
    ``msg_log`` come from the payload's shared memo
    (:func:`read_section`); ``app``, ``mdcd`` and ``counters`` decode
    once per view.  Nothing read through a view may be mutated;
    :meth:`~repro.checkpoint.Checkpoint.restore_state` is the private,
    mutable copy.
    """

    def __init__(self, payload: SnapshotPayload) -> None:
        object.__setattr__(self, "_pending",
                           {p.section: p for p in payload.sections})

    def __getattr__(self, name: str) -> Any:
        pending = self.__dict__.get("_pending")
        section = section_plan().section_of.get(name)
        payload = pending.pop(section, None) if pending else None
        if payload is None:
            raise AttributeError(name)
        fields = read_section(payload)
        self.__dict__.update(fields)
        return fields[name]

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"snapshot views are read-only ({name!r})")


class SnapshotEncoder:
    """Per-process capture pipeline with incremental section encoding.

    One encoder serves all of a process's captures (volatile and
    stable, any codec): it remembers, per delta-capable section, the
    previously emitted payload (the chain tip) and a baseline of the
    live state it encoded (that capture's own records and log entries,
    see :mod:`~repro.snapshot.delta`), and emits deltas while the chain
    stays representable and shorter than ``max_chain``.

    Determinism: the encoder reads the live state and writes only its
    own bookkeeping — capture can never perturb the simulation, so
    incremental and full runs produce identical event sequences.
    """

    def __init__(self, incremental: bool = True, max_chain: int = 16) -> None:
        self.incremental = incremental
        if max_chain < 1:
            raise ValueError("max_chain must be at least 1")
        self.max_chain = max_chain
        self._tips: Dict[str, SectionPayload] = {}
        self._journal_baselines: Dict[str, JournalBase] = {}
        self._log_baselines: Dict[str, LogBase] = {}
        #: Capture statistics per section: counts of full and delta
        #: encodes (the ``snapshot-stats`` CLI reads these).
        self.full_encodes: Dict[str, int] = {}
        self.delta_encodes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop all incremental state: the next capture emits full
        sections.  Called after a restore, when the live journals and
        log are replaced by decoded copies the baselines do not
        describe."""
        self._tips.clear()
        self._journal_baselines.clear()
        self._log_baselines.clear()

    # ------------------------------------------------------------------
    def encode_snapshot(self, snapshot: Any,
                        codec: Union[str, Codec, None] = None
                        ) -> SnapshotPayload:
        """Encode one capture, emitting delta sections where possible.

        The live objects are encoded as they are — the codec's decode
        is an independent copy (see :mod:`~repro.snapshot.codec`), so
        the capture needs no copy of its own."""
        chosen = get_codec(codec)
        sections = split_sections(snapshot)
        if sections is None:
            return SnapshotPayload(
                sections=(self._payload(OPAQUE_SECTION, snapshot, chosen),))
        payloads = []
        for name, fields in sections.items():
            if self.incremental and name == "journals":
                payloads.append(self._encode_journals(fields, chosen))
            elif self.incremental and name == "msg_log":
                payloads.append(self._encode_log(fields, chosen))
            else:
                payloads.append(self._payload(name, fields, chosen))
        return SnapshotPayload(sections=tuple(payloads))

    # ------------------------------------------------------------------
    def _encode_journals(self, fields: Dict[str, Any],
                         codec: Codec) -> SectionPayload:
        tip = self._usable_tip("journals")
        bases = self._journal_baselines
        if tip is not None and bases.keys() == fields.keys():
            delta_value = {}
            next_bases = {}
            for name, journal in fields.items():
                delta_value[name], next_bases[name] = journal_delta(
                    journal, bases[name])
            payload = self._payload("journals", delta_value, codec, tip)
        else:
            payload = self._payload("journals", fields, codec)
            next_bases = {name: journal_base(journal)
                          for name, journal in fields.items()}
        self._journal_baselines = next_bases
        self._tips["journals"] = payload
        return payload

    def _encode_log(self, fields: Dict[str, Any],
                    codec: Codec) -> SectionPayload:
        tip = self._usable_tip("msg_log")
        bases = self._log_baselines
        delta_value: Optional[Dict[str, Any]] = None
        if tip is not None and bases.keys() == fields.keys():
            delta_value = {}
            for name, log in fields.items():
                delta = log_delta(log, bases[name])
                if delta is None:  # inexpressible (sn restart) -> full
                    delta_value = None
                    break
                delta_value[name] = delta
        if delta_value is not None:
            payload = self._payload("msg_log", delta_value, codec, tip)
        else:
            payload = self._payload("msg_log", fields, codec)
        self._log_baselines = {name: log_base(log)
                               for name, log in fields.items()}
        self._tips["msg_log"] = payload
        return payload

    # ------------------------------------------------------------------
    def _usable_tip(self, section: str) -> Optional[SectionPayload]:
        """The previous payload, unless the chain hit its length bound."""
        tip = self._tips.get(section)
        if tip is None or tip.depth + 1 >= self.max_chain:
            return None
        return tip

    def _payload(self, section: str, value: Any, codec: Codec,
                 tip: Optional[SectionPayload] = None) -> SectionPayload:
        """Encode one section value: whole, or as a delta chained to
        ``tip``."""
        data, nbytes = encode_value(value, codec)
        counter = self.full_encodes if tip is None else self.delta_encodes
        counter[section] = counter.get(section, 0) + 1
        return SectionPayload(section=section, codec_id=codec.codec_id,
                              data=data, nbytes=nbytes, full=tip is None,
                              base=tip,
                              depth=0 if tip is None else tip.depth + 1)
