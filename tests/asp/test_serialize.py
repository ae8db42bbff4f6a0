"""Tests for the binary ground-program serializer.

The contract: ``loads_ground(dumps_ground(p))`` reproduces every field
of the program structurally, the encoding is meaningfully smaller than
a pickle of the same program, and the publish/shared cache behaves like
a fork warm path (hit without a blob after publish, decode-on-miss with
one).
"""

import pickle

import pytest

from repro.asp import Control
from repro.asp.grounder import Grounder
from repro.asp.parser import parse_program
from repro.asp.serialize import (
    SerializeError,
    clear_shared_programs,
    dumps_ground,
    loads_ground,
    publish,
    shared_program,
)

RICH_PROGRAM = """
item(1..3). weight(1, 4). weight(2, -2). weight(3, 7).
{ pick(I) : item(I) } 2.
named(f(a, g(1, "x"))).
heavy :- #sum { W, I : pick(I), weight(I, W) } >= 5.
:- #count { I : pick(I) } > 2.
covered :- pick(I), item(I).
:~ pick(I), weight(I, W). [W@1, I]
#show pick/1.
#show heavy/0.
"""


def rich_ground():
    return Control(RICH_PROGRAM).ground()


class TestRoundTrip:
    def test_all_fields_survive(self):
        program = rich_ground()
        back = loads_ground(dumps_ground(program))
        assert back.rules == program.rules
        assert back.weak_constraints == program.weak_constraints
        assert back.shows == program.shows
        assert back.possible_atoms == program.possible_atoms
        assert back.origins is None

    def test_atoms_reintern(self):
        # decoded atoms must be interchangeable with freshly built ones
        program = rich_ground()
        back = loads_ground(dumps_ground(program))
        assert set(back.possible_atoms) == set(program.possible_atoms)

    def test_solving_the_decoded_program_matches(self):
        from repro.asp.solver import StableModelSolver

        program = rich_ground()
        reference = {
            frozenset(m.atoms) for m in StableModelSolver(program).models()
        }
        decoded = loads_ground(dumps_ground(program))
        roundtrip = {
            frozenset(m.atoms) for m in StableModelSolver(decoded).models()
        }
        assert roundtrip == reference

    def test_empty_program(self):
        program = Control("").ground()
        back = loads_ground(dumps_ground(program))
        assert back.rules == program.rules
        assert back.possible_atoms == program.possible_atoms


class TestCompactness:
    def test_smaller_than_pickle(self):
        program = rich_ground()
        blob = dumps_ground(program)
        pickled = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < len(pickled)


class TestRejections:
    def test_bad_magic(self):
        with pytest.raises(SerializeError):
            loads_ground(b"NOPE" + b"\x00" * 16)

    def test_trailing_bytes_rejected(self):
        blob = dumps_ground(rich_ground())
        with pytest.raises(SerializeError, match="trailing"):
            loads_ground(blob + b"garbage")

    def test_provenance_programs_refused(self):
        grounder = Grounder(parse_program("a. b :- a."), provenance=True)
        program = grounder.ground()
        assert program.origins is not None
        with pytest.raises(SerializeError):
            dumps_ground(program)


class TestSharedCache:
    def setup_method(self):
        clear_shared_programs()

    def teardown_method(self):
        clear_shared_programs()

    def test_publish_then_lookup_is_identity(self):
        program = rich_ground()
        digest, _blob = publish(program)
        assert shared_program(digest) is program

    def test_miss_with_blob_decodes_and_caches(self):
        program = rich_ground()
        digest, blob = publish(program)
        clear_shared_programs()
        decoded = shared_program(digest, blob)
        assert decoded.rules == program.rules
        # second lookup hits the cache entry created by the decode
        assert shared_program(digest) is decoded

    def test_miss_without_blob_raises(self):
        with pytest.raises(KeyError):
            shared_program("0" * 64)

    def test_miss_with_mismatched_blob_rejected(self):
        digest, _blob = publish(rich_ground())
        clear_shared_programs()
        other = dumps_ground(Control("a. b :- a.").ground())
        with pytest.raises(SerializeError, match="digest"):
            shared_program(digest, other)
        # nothing was cached under the claimed digest
        with pytest.raises(KeyError):
            shared_program(digest)
