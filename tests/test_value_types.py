"""The immutable value types: validation, immutability, identity, repr and
pickling, for the validating tuples (AlbertType, CharContext, CatalogEntry,
Fixture) and the slotted classes (Catalog, Block, Decomposition)."""

import copy
import pickle

import pytest

from picard_ranges.albert import AlbertType, CharContext, type_I, type_IV
from picard_ranges.catalog import Catalog, CatalogEntry
from picard_ranges.decomp import (
    CM_TYPE,
    ORDINARY_TYPE,
    SUPERSINGULAR_TYPE,
    Block,
    Decomposition,
    parse,
)
from picard_ranges.verify import Fixture

SS_ENTRY = CatalogEntry(1, SUPERSINGULAR_TYPE, "one")

# (a value, its repr); each value is built twice, so that equal values are
# distinct objects
SAMPLES = [
    (lambda: type_IV(2, 3), "AlbertType(kind='IV', e=1, e0=2, d=3)"),
    (lambda: CharContext("zero"), "CharContext(mode='zero', p_split_policy='unknown')"),
    (lambda: CatalogEntry(2, type_I(1)),
     "CatalogEntry(simple_dim=2, albert=AlbertType(kind='I', e=1, e0=1, d=1), "
     "class_count='unbounded', condition='always')"),
    (lambda: Catalog((CatalogEntry(1, SUPERSINGULAR_TYPE, "one"),), "paper"),
     "Catalog(entries=(CatalogEntry(simple_dim=1, albert=AlbertType(kind='III', e=1, e0=1, d=1), "
     "class_count='one', condition='always'),), mode='paper')"),
    (lambda: Block(1, CM_TYPE, 2),
     "Block(simple_dim=1, albert=AlbertType(kind='IV', e=1, e0=1, d=1), power=2)"),
    (lambda: parse("cm^2 * ss"),
     "Decomposition(blocks=(Block(simple_dim=1, albert=AlbertType(kind='IV', e=1, e0=1, d=1), "
     "power=2), Block(simple_dim=1, albert=AlbertType(kind='III', e=1, e0=1, d=1), power=1)))"),
    (lambda: Fixture("T", 2, (1, 2), (2,)), "Fixture(label='T', dimension=2, values=(1, 2), star=(2,))"),
]
IDS = [text.split("(", 1)[0] for _, text in SAMPLES]

# (a value, the same value with one field changed)
DIFFERENT = [
    (type_IV(2, 3), type_IV(3, 2)),
    (CharContext("zero"), CharContext()),
    (CatalogEntry(2, type_I(1)), CatalogEntry(2, type_I(1), "one")),
    (Catalog((SS_ENTRY,), "paper"), Catalog((SS_ENTRY,), "upper")),
    (Block(1, CM_TYPE, 2), Block(1, CM_TYPE, 3)),
    (parse("cm^2 * ss"), parse("cm^2 * ss^2")),
    (Fixture("T", 2, (1, 2), (2,)), Fixture("T", 2, (1, 2), ())),
]

BAD_INPUT = [
    (lambda: AlbertType("V"), "unknown Albert kind 'V'"),
    (lambda: AlbertType("IV", e0=0), "type IV needs e0 >= 1 and d >= 1"),
    (lambda: AlbertType("II", e=0), "type II needs e >= 1"),
    (lambda: type_I(1)._replace(e=0), "type I needs e >= 1"),
    (lambda: CharContext("weird"), "mode must be 'positive' or 'zero', got 'weird'"),
    (lambda: CharContext(p_split_policy="x"), "bad p_split_policy 'x'"),
    (lambda: CharContext("zero", "split"), "a p_split_policy makes no sense in characteristic zero"),
    (lambda: CharContext("zero")._replace(p_split_policy="split"),
     "a p_split_policy makes no sense in characteristic zero"),
    (lambda: CatalogEntry(0, type_I(1)), "simple_dim must be positive"),
    (lambda: CatalogEntry(1, type_I(1), "many"), "bad class_count 'many'"),
    (lambda: CatalogEntry(1, type_I(1), "one", "never"), "bad condition 'never'"),
    (lambda: CatalogEntry(1, SUPERSINGULAR_TYPE), "the supersingular entry has a single isogeny class"),
    (lambda: SS_ENTRY._replace(class_count="unbounded"),
     "the supersingular entry has a single isogeny class"),
    (lambda: Catalog((CatalogEntry(1, type_I(1)), CatalogEntry(1, type_I(1)))),
     "duplicate entry (dim=1, I(1))"),
    (lambda: Block(0, CM_TYPE, 1), "simple_dim must be positive"),
    (lambda: Block(1, CM_TYPE, 0), "power must be positive"),
    (lambda: Decomposition(()), "a decomposition needs at least one block"),
    (lambda: Decomposition((Block(1, SUPERSINGULAR_TYPE, 1),) * 2),
     "at most one supersingular block is allowed"),
    (lambda: Decomposition((Block(1, ORDINARY_TYPE, 1), Block(2, type_I(1), 1))),
     "blocks are not in normalized form"),
    (lambda: Fixture("T", 0, (), ()), "fixture T: dimension must be positive"),
    (lambda: Fixture("T", 1, (2, 1), ()), "fixture T: values must be sorted and unique"),
    (lambda: Fixture("T", 1, (1,), (3,)), "fixture T: star set must be a subset of values"),
    (lambda: Fixture("T", 1, (1,), ())._replace(star=(3,)),
     "fixture T: star set must be a subset of values"),
]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


@pytest.mark.parametrize("make, message", BAD_INPUT, ids=[m for _, m in BAD_INPUT])
def test_bad_input_raises_the_same_message(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize("make, text", SAMPLES, ids=IDS)
def test_assignment_is_refused(make, text):
    value = make()
    name = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1  # no instance dictionary
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("make, text", SAMPLES, ids=IDS)
def test_equality_and_hash_read_the_fields_alone(make, text):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(_fields(first))


@pytest.mark.parametrize("value, other", DIFFERENT, ids=IDS)
def test_a_changed_field_changes_equality(value, other):
    assert value != other and not value == other
    assert type(value) is type(other)


@pytest.mark.parametrize("make, text", SAMPLES, ids=IDS)
def test_repr_names_every_field(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", SAMPLES, ids=IDS)
def test_pickle_and_copy_round_trip(make, text):
    value = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(value, protocol)) == value
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value) and copied == value
        assert hash(copied) == hash(value) and repr(copied) == text


def test_slotted_classes_equal_no_other_type():
    # unlike the tuple types, which equal the plain tuple of their fields
    for value in (Block(1, CM_TYPE, 2), parse("cm^2 * ss"), Catalog((SS_ENTRY,), "paper")):
        assert value != _fields(value)
    assert type_IV(2, 3) == ("IV", 1, 2, 3)
