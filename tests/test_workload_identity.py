"""Property-based tests for Workload identity (hypothesis).

The workload trie is keyed on :meth:`Workload.prefix_key`; a key collision
between different operation prefixes would make the prefix-shared recorder
silently resume a sibling from the wrong state.  These properties pin down
the identity scheme: stability, serialization round-trips, prefix
consistency, and collision-freedom between workloads whose operations differ
in any argument.
"""

from hypothesis import given, settings, strategies as st

from repro.workload.operations import Operation, OpKind
from repro.workload.workload import Workload

_PATHS = st.sampled_from(["foo", "bar", "A/foo", "A/bar", "B/foo", "A", "B"])
_OP_NAMES = st.sampled_from(OpKind.ACE_CORE + OpKind.PERSISTENCE)


@st.composite
def operations(draw):
    name = draw(_OP_NAMES)
    if name in (OpKind.SYNC,):
        args = ()
    elif name in (OpKind.RENAME, OpKind.LINK):
        args = (draw(_PATHS), draw(_PATHS))
    elif name in OpKind.DATA_OPS:
        args = (draw(_PATHS), draw(st.integers(0, 8192)), draw(st.integers(1, 8192)))
    elif name in (OpKind.SETXATTR, OpKind.REMOVEXATTR):
        args = (draw(_PATHS), "user.attr1")
    elif name == OpKind.TRUNCATE:
        args = (draw(_PATHS), draw(st.integers(0, 8192)))
    else:
        args = (draw(_PATHS),)
    kwargs = ()
    if name == OpKind.FALLOC:
        kwargs = (("keep_size", draw(st.booleans())),)
    return Operation(name, args, kwargs, dependency=draw(st.booleans()))


workloads = st.builds(
    lambda ops, name: Workload(ops=ops, name=name),
    ops=st.lists(operations(), min_size=0, max_size=8),
    name=st.sampled_from(["", "w", "seq-2-0000001"]),
)


@settings(max_examples=80, deadline=None)
@given(workload=workloads)
def test_prefix_keys_agree_with_per_prefix_hashing(workload):
    keys = workload.prefix_keys()
    assert len(keys) == len(workload.ops) + 1
    for length in range(len(workload.ops) + 1):
        assert keys[length] == workload.prefix_key(length)
    assert workload.prefix_key() == keys[-1]


@settings(max_examples=80, deadline=None)
@given(workload=workloads)
def test_json_round_trip_preserves_identity(workload):
    clone = Workload.from_json(workload.to_json())
    assert clone.ops == workload.ops
    assert clone.workload_id() == workload.workload_id()
    assert clone.prefix_keys() == workload.prefix_keys()
    assert clone.family_key() == workload.family_key()


@settings(max_examples=80, deadline=None)
@given(workload=workloads)
def test_identity_ignores_name_and_source(workload):
    relabeled = Workload(ops=list(workload.ops), name="other", source="elsewhere")
    assert relabeled.workload_id() == workload.workload_id()
    assert relabeled.prefix_keys() == workload.prefix_keys()


@settings(max_examples=120, deadline=None)
@given(a=workloads, b=workloads)
def test_no_prefix_key_collisions_between_different_op_lists(a, b):
    """Different ops (any name/arg/kwarg/dependency difference) -> different keys."""
    if a.ops == b.ops:
        assert a.prefix_key() == b.prefix_key()
    else:
        assert a.prefix_key() != b.prefix_key()


@settings(max_examples=80, deadline=None)
@given(workload=workloads, extra=operations())
def test_extending_a_workload_extends_its_prefix_keys(workload, extra):
    extended = Workload(ops=list(workload.ops) + [extra])
    assert extended.prefix_keys()[: len(workload.ops) + 1] == workload.prefix_keys()
    assert extended.prefix_key(len(workload.ops)) == workload.prefix_key()


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(operations(), min_size=1, max_size=6), cut=st.integers(0, 6))
def test_shared_prefixes_share_keys_exactly_up_to_divergence(ops, cut):
    cut = min(cut, len(ops))
    divergent = Operation(OpKind.CREAT, ("unique-divergence-path",))
    a = Workload(ops=list(ops))
    b = Workload(ops=list(ops[:cut]) + [divergent])
    keys_a, keys_b = a.prefix_keys(), b.prefix_keys()
    assert keys_a[: cut + 1] == keys_b[: cut + 1]
    if cut < len(ops) and ops[cut] != divergent:
        assert keys_a[cut + 1] != keys_b[cut + 1]


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operations(), min_size=0, max_size=6))
def test_family_key_ignores_persistence_placement(ops):
    core = [op for op in ops if not op.is_persistence]
    spread = []
    for op in core:
        spread.append(op)
        spread.append(Operation(OpKind.FSYNC, ("foo",)))
    with_persistence = Workload(ops=spread + [Operation(OpKind.SYNC, ())])
    assert with_persistence.family_key() == Workload(ops=core).family_key()


def test_equal_but_json_distinct_operations_never_share_a_key():
    """``1``, ``1.0`` and ``True`` compare and hash equal, so the operations
    do too — but they serialize differently, and the per-operation payload
    memo must key them apart in whichever order they are first seen."""
    import hashlib
    import json

    variants = [Operation(OpKind.TRUNCATE, ("foo", size)) for size in (1, 1.0, True)]
    variants += [Operation(OpKind.FALLOC, ("foo", 0, 1), (("keep_size", flag),))
                 for flag in (1, 1.0, True)]
    variants += [Operation(OpKind.TRUNCATE, ("foo", zero)) for zero in (0, 0.0, -0.0, False)]
    assert variants[0] == variants[1] == variants[2]

    def reference_key(op):
        payload = json.dumps(op.to_json(), sort_keys=True).encode("utf-8")
        return hashlib.sha1(f"{len(payload)}:".encode("ascii") + payload).hexdigest()[:16]

    for ordering in (variants, variants[::-1]):
        for op in ordering:
            workload = Workload(ops=[op])
            assert workload.prefix_key() == reference_key(op)
            assert workload.prefix_keys()[1] == reference_key(op)
            assert workload.family_key() == reference_key(op)
    assert len({Workload(ops=[op]).prefix_key() for op in variants}) == len(variants)
