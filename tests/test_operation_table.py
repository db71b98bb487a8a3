"""The operation table: every kind declared once, and what derives from it."""

import pytest

from repro.ace import AceSynthesizer, seq1_bounds
from repro.ace.fileset import build_fileset
from repro.errors import WorkloadError
from repro.workload import OpKind, ops, parse_line
from repro.workload.operations import OPERATIONS, Operation, Role, spec_of
from repro.workload.workload import make_workload


def _kinds():
    return {value for name, value in vars(OpKind).items()
            if name.isupper() and isinstance(value, str)}


def test_every_kind_is_declared_once():
    assert set(OPERATIONS) == _kinds()
    assert all(spec.kind == kind for kind, spec in OPERATIONS.items())
    spellings = [spelling for spec in OPERATIONS.values() for spelling in spec.spellings]
    assert len(spellings) == len(set(spellings))


@pytest.mark.parametrize("kind", sorted(_kinds()))
def test_the_minimal_line_of_each_kind_parses_to_it(kind):
    spec = OPERATIONS[kind]
    tokens = ["7" if arg.type is int else "foo" for arg in spec.positional[:spec.min_args]]
    op = parse_line(" ".join([kind, *tokens]))
    assert op.op == kind
    assert spec_of(op) is spec


def test_validate_names_the_malformed_operation():
    with pytest.raises(WorkloadError, match=r"operation 0: unknown operation 'warpdrive'"):
        make_workload([Operation("warpdrive", ("foo",)), ops.sync()], name="w").validate()
    with pytest.raises(WorkloadError, match=r"operation 1: rename needs at least 2"):
        make_workload([ops.creat("foo"), Operation(OpKind.RENAME, ("foo",)), ops.sync()]).validate()


def test_left_out_arguments_take_their_declared_defaults():
    setxattr = Operation(OpKind.SETXATTR, ("foo",))
    assert spec_of(setxattr).bind(setxattr) == ["foo", "user.attr1", "value1"]
    # msync's range comes whole or not at all
    assert parse_line("msync foo 4096").args == ("foo",)
    assert OPERATIONS[OpKind.MSYNC].bind(ops.msync("foo")) == ["foo", None, None]
    assert OPERATIONS[OpKind.FALLOC].bind(Operation(OpKind.FALLOC, ("foo", "0", "8"))) \
        == ["foo", 0, 8, False]


@pytest.mark.xfail(strict=True, reason=(
    "known ACE gap: phase 3's path helpers, like phase2.op_paths, take every string "
    "argument that does not start with 'user.' for a path, so setxattr's value "
    "'value1' becomes a file that creat and fsync are given"))
def test_every_path_argument_of_seq_1_is_in_the_bounded_file_set():
    bounds = seq1_bounds()
    fileset = set(build_fileset(bounds).all_paths())
    strays = set()
    for workload in AceSynthesizer(bounds).generate():
        for op in workload.ops:
            strays.update(value for arg, value in zip(OPERATIONS[op.op].positional, op.args)
                          if arg.role in (Role.PATH, Role.PATH2) and value not in fileset)
    assert strays == set()
