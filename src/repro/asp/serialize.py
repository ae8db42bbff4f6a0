"""Compact binary serialization for ground programs.

Shipping a :class:`~repro.asp.ground.GroundProgram` to a worker process
through :mod:`pickle` walks the whole object graph — every
:class:`~repro.asp.syntax.Atom`, every interned term — and re-executes
``__reduce__`` per node on both ends.  This module replaces that with a
flat binary codec: strings, terms and atoms are each written once into
an interned pool and every later reference is a varint index, so the
encoded form is both much smaller than a pickle and decodes in a single
forward pass that rebuilds the intern caches as it goes.

Wire format (all integers are unsigned LEB128 varints unless noted)::

    magic   b"RGP1"
    strings pool: count, then per string utf-8 length + bytes
    terms   pool: count, then per term a tag byte —
            0 Number   (zig-zag varint value)
            1 Symbol   (string ref)
            2 String   (string ref)
            3 Function (string ref, argument count, term refs)
            argument terms always precede the function that uses them
    atoms   pool: count, then per atom predicate string ref,
            argument count, term refs
    rules:  count, then per rule a head tag byte —
            0 constraint (no head), 1 atom head (atom ref),
            2 choice head (bounds, elements) — followed by the
            pos/neg atom-ref lists and aggregates
    weak constraints, shows, possible_atoms: analogous flat lists

Optional guard bounds are encoded as ``0`` for absent / ``value + 1``
shifted varints (zig-zag for the value) so ``None`` needs one byte.

Programs carrying provenance (``origins is not None``) are refused:
origins reference non-ground AST nodes that this codec deliberately does
not know how to encode, and provenance runs are never sharded.

Exports: :func:`dumps_ground`, :func:`loads_ground`, :func:`publish`,
:func:`shared_program`, :func:`clear_shared_programs`.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from .ground import (
    GroundAggregate,
    GroundAggregateElement,
    GroundChoice,
    GroundProgram,
    GroundRule,
    GroundWeakConstraint,
)
from .syntax import Atom
from .terms import Function, Number, String, Symbol

MAGIC = b"RGP1"

_TAG_NUMBER = 0
_TAG_SYMBOL = 1
_TAG_STRING = 2
_TAG_FUNCTION = 3

_HEAD_NONE = 0
_HEAD_ATOM = 1
_HEAD_CHOICE = 2


class SerializeError(ValueError):
    """Raised on unencodable programs or malformed blobs."""


# ---------------------------------------------------------------------------
# varint primitives


def _write_uint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_int(out: bytearray, value: int) -> None:
    _write_uint(out, (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1)


def _write_optional(out: bytearray, value: Optional[int]) -> None:
    if value is None:
        out.append(0)
    else:
        out.append(1)
        _write_int(out, value)


class _Reader:
    """Forward-only cursor over an encoded blob."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def byte(self) -> int:
        value = self.data[self.pos]
        self.pos += 1
        return value

    def uint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def int(self) -> int:
        raw = self.uint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

    def optional(self) -> Optional[int]:
        return self.int() if self.byte() else None


# ---------------------------------------------------------------------------
# encoding


class _Encoder:
    """Builds the string/term/atom pools while packing the body."""

    def __init__(self) -> None:
        self.strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        self.terms = bytearray()
        self.term_count = 0
        self._term_ids: Dict[object, int] = {}
        self.atoms = bytearray()
        self.atom_count = 0
        self._atom_ids: Dict[Atom, int] = {}

    def string_ref(self, value: str) -> int:
        ref = self._string_ids.get(value)
        if ref is None:
            ref = len(self.strings)
            self._string_ids[value] = ref
            self.strings.append(value)
        return ref

    def term_ref(self, term: object) -> int:
        ref = self._term_ids.get(term)
        if ref is not None:
            return ref
        kind = type(term)
        if kind is Number:
            self.terms.append(_TAG_NUMBER)
            _write_int(self.terms, term.value)
        elif kind is Symbol:
            self.terms.append(_TAG_SYMBOL)
            _write_uint(self.terms, self.string_ref(term.name))
        elif kind is String:
            self.terms.append(_TAG_STRING)
            _write_uint(self.terms, self.string_ref(term.value))
        elif kind is Function:
            # Encode arguments first so decode is a single forward pass.
            argument_refs = [self.term_ref(argument) for argument in term.arguments]
            self.terms.append(_TAG_FUNCTION)
            _write_uint(self.terms, self.string_ref(term.name))
            _write_uint(self.terms, len(argument_refs))
            for argument_ref in argument_refs:
                _write_uint(self.terms, argument_ref)
        else:
            raise SerializeError(
                "cannot serialize non-ground term %r (%s)" % (term, kind.__name__)
            )
        ref = self.term_count
        self.term_count += 1
        self._term_ids[term] = ref
        return ref

    def atom_ref(self, atom: Atom) -> int:
        ref = self._atom_ids.get(atom)
        if ref is not None:
            return ref
        argument_refs = [self.term_ref(argument) for argument in atom.arguments]
        _write_uint(self.atoms, self.string_ref(atom.predicate))
        _write_uint(self.atoms, len(argument_refs))
        for argument_ref in argument_refs:
            _write_uint(self.atoms, argument_ref)
        ref = self.atom_count
        self.atom_count += 1
        self._atom_ids[atom] = ref
        return ref

    def atom_list(self, out: bytearray, atoms: Tuple[Atom, ...]) -> None:
        _write_uint(out, len(atoms))
        for atom in atoms:
            _write_uint(out, self.atom_ref(atom))


def _encode_aggregate(encoder: _Encoder, out: bytearray, aggregate: GroundAggregate) -> None:
    _write_uint(out, encoder.string_ref(aggregate.function))
    _write_optional(out, aggregate.lower)
    _write_optional(out, aggregate.upper)
    out.append(1 if aggregate.negated else 0)
    _write_uint(out, len(aggregate.elements))
    for element in aggregate.elements:
        _write_uint(out, len(element.terms))
        for term in element.terms:
            _write_uint(out, encoder.term_ref(term))
        encoder.atom_list(out, element.pos)
        encoder.atom_list(out, element.neg)


def dumps_ground(program: GroundProgram) -> bytes:
    """Encode ``program`` into the ``RGP1`` binary form.

    Raises :class:`SerializeError` when the program carries rule origins
    (provenance runs are never shipped to workers) or contains a term
    kind outside the ground vocabulary.
    """
    if program.origins is not None:
        raise SerializeError(
            "programs with provenance origins cannot be serialized; "
            "re-ground without provenance before sharding"
        )
    encoder = _Encoder()
    body = bytearray()

    _write_uint(body, len(program.rules))
    for rule in program.rules:
        head = rule.head
        if head is None:
            body.append(_HEAD_NONE)
        elif isinstance(head, Atom):
            body.append(_HEAD_ATOM)
            _write_uint(body, encoder.atom_ref(head))
        elif isinstance(head, GroundChoice):
            body.append(_HEAD_CHOICE)
            _write_optional(body, head.lower)
            _write_optional(body, head.upper)
            _write_uint(body, len(head.elements))
            for atom, condition_pos, condition_neg in head.elements:
                _write_uint(body, encoder.atom_ref(atom))
                encoder.atom_list(body, condition_pos)
                encoder.atom_list(body, condition_neg)
        else:
            raise SerializeError("unknown rule head %r" % (head,))
        encoder.atom_list(body, rule.pos)
        encoder.atom_list(body, rule.neg)
        _write_uint(body, len(rule.aggregates))
        for aggregate in rule.aggregates:
            _encode_aggregate(encoder, body, aggregate)

    _write_uint(body, len(program.weak_constraints))
    for weak in program.weak_constraints:
        encoder.atom_list(body, weak.pos)
        encoder.atom_list(body, weak.neg)
        _write_int(body, weak.weight)
        _write_int(body, weak.priority)
        _write_uint(body, len(weak.terms))
        for term in weak.terms:
            _write_uint(body, encoder.term_ref(term))

    _write_uint(body, len(program.shows))
    for name, arity in program.shows:
        _write_uint(body, encoder.string_ref(name))
        _write_uint(body, arity)

    _write_uint(body, len(program.possible_atoms))
    for atom in program.possible_atoms:
        _write_uint(body, encoder.atom_ref(atom))

    out = bytearray(MAGIC)
    _write_uint(out, len(encoder.strings))
    for value in encoder.strings:
        raw = value.encode("utf-8")
        _write_uint(out, len(raw))
        out += raw
    _write_uint(out, encoder.term_count)
    out += encoder.terms
    _write_uint(out, encoder.atom_count)
    out += encoder.atoms
    out += body
    return bytes(out)


# ---------------------------------------------------------------------------
# decoding


def loads_ground(blob: bytes) -> GroundProgram:
    """Decode an ``RGP1`` blob back into a :class:`GroundProgram`.

    Decoding re-enters the term/atom intern caches, so atoms decoded in
    a worker compare equal (and identical) to atoms the worker grounds
    itself.  Raises :class:`SerializeError` on a bad magic header or
    on bytes left over after the last field.
    """
    if blob[:4] != MAGIC:
        raise SerializeError("not an RGP1 ground-program blob")
    reader = _Reader(blob)
    reader.pos = 4

    strings: List[str] = []
    for _ in range(reader.uint()):
        length = reader.uint()
        strings.append(reader.data[reader.pos : reader.pos + length].decode("utf-8"))
        reader.pos += length

    terms: List[object] = []
    for _ in range(reader.uint()):
        tag = reader.byte()
        if tag == _TAG_NUMBER:
            terms.append(Number(reader.int()))
        elif tag == _TAG_SYMBOL:
            terms.append(Symbol(strings[reader.uint()]))
        elif tag == _TAG_STRING:
            terms.append(String(strings[reader.uint()]))
        elif tag == _TAG_FUNCTION:
            name = strings[reader.uint()]
            arguments = tuple(terms[reader.uint()] for _ in range(reader.uint()))
            terms.append(Function(name, arguments))
        else:
            raise SerializeError("unknown term tag %d" % tag)

    atoms: List[Atom] = []
    for _ in range(reader.uint()):
        predicate = strings[reader.uint()]
        arguments = tuple(terms[reader.uint()] for _ in range(reader.uint()))
        atoms.append(Atom(predicate, arguments))

    def atom_list() -> Tuple[Atom, ...]:
        return tuple(atoms[reader.uint()] for _ in range(reader.uint()))

    rules: List[GroundRule] = []
    for _ in range(reader.uint()):
        head_tag = reader.byte()
        if head_tag == _HEAD_NONE:
            head: Optional[object] = None
        elif head_tag == _HEAD_ATOM:
            head = atoms[reader.uint()]
        elif head_tag == _HEAD_CHOICE:
            lower = reader.optional()
            upper = reader.optional()
            elements = tuple(
                (atoms[reader.uint()], atom_list(), atom_list())
                for _ in range(reader.uint())
            )
            head = GroundChoice(elements=elements, lower=lower, upper=upper)
        else:
            raise SerializeError("unknown head tag %d" % head_tag)
        pos = atom_list()
        neg = atom_list()
        aggregates = []
        for _ in range(reader.uint()):
            function = strings[reader.uint()]
            agg_lower = reader.optional()
            agg_upper = reader.optional()
            negated = bool(reader.byte())
            elements = tuple(
                GroundAggregateElement(
                    terms=tuple(terms[reader.uint()] for _ in range(reader.uint())),
                    pos=atom_list(),
                    neg=atom_list(),
                )
                for _ in range(reader.uint())
            )
            aggregates.append(
                GroundAggregate(
                    function=function,
                    elements=elements,
                    lower=agg_lower,
                    upper=agg_upper,
                    negated=negated,
                )
            )
        rules.append(
            GroundRule(head=head, pos=pos, neg=neg, aggregates=tuple(aggregates))
        )

    weak_constraints: List[GroundWeakConstraint] = []
    for _ in range(reader.uint()):
        pos = atom_list()
        neg = atom_list()
        weight = reader.int()
        priority = reader.int()
        weak_terms = tuple(terms[reader.uint()] for _ in range(reader.uint()))
        weak_constraints.append(
            GroundWeakConstraint(
                pos=pos, neg=neg, weight=weight, priority=priority, terms=weak_terms
            )
        )

    shows: List[Tuple[str, int]] = []
    for _ in range(reader.uint()):
        shows.append((strings[reader.uint()], reader.uint()))

    possible_atoms = [atoms[reader.uint()] for _ in range(reader.uint())]
    if reader.pos != len(blob):
        raise SerializeError(
            "%d trailing bytes after the RGP1 program" % (len(blob) - reader.pos)
        )

    return GroundProgram(
        rules=rules,
        weak_constraints=weak_constraints,
        shows=shows,
        possible_atoms=possible_atoms,
    )


# ---------------------------------------------------------------------------
# shared-program cache (fork warm path)


_SHARED: Dict[str, GroundProgram] = {}


def publish(program: GroundProgram) -> Tuple[str, bytes]:
    """Encode ``program`` and prime the shared cache with the result.

    Returns ``(digest, blob)`` where ``digest`` is the sha256 hex digest
    of the blob.  Call this in the parent before forking workers: the
    cache entry is inherited copy-on-write, so a forked worker's
    :func:`shared_program` call is a dict lookup, not a decode.  Spawned
    (or remote) workers ship the blob itself and decode once.
    """
    blob = dumps_ground(program)
    digest = hashlib.sha256(blob).hexdigest()
    _SHARED[digest] = program
    return digest, blob


def shared_program(digest: str, blob: Optional[bytes] = None) -> GroundProgram:
    """The program for ``digest``, decoding ``blob`` on a cache miss.

    Fork-started workers hit the cache primed by the parent's
    :func:`publish`; spawn-started workers miss and decode the blob they
    were shipped (caching the result for subsequent tasks).  Raises
    :class:`KeyError` on a miss with no blob to decode, and
    :class:`SerializeError` when the blob does not hash to ``digest``.
    """
    program = _SHARED.get(digest)
    if program is None:
        if blob is None:
            raise KeyError("ground program %s not published and no blob given" % digest)
        if hashlib.sha256(blob).hexdigest() != digest:
            raise SerializeError("RGP1 blob does not match digest %s" % digest)
        program = loads_ground(blob)
        _SHARED[digest] = program
    return program


def clear_shared_programs() -> None:
    """Drop all cached programs (test isolation hook)."""
    _SHARED.clear()


__all__ = [
    "MAGIC",
    "SerializeError",
    "clear_shared_programs",
    "dumps_ground",
    "loads_ground",
    "publish",
    "shared_program",
]
