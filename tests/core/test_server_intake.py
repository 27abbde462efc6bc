"""Property test: the key server's request intake against a list model.

``GroupKeyServer`` keeps its pending joins and leaves in insertion-ordered
dicts so membership tests and cancels are O(1).  The model below is the
plain-list implementation those dicts replaced.  Random join / leave /
re-join / cancel sequences, with rekeys in between, must leave both with
the same pending queues in the same arrival order, raise the same errors,
and hand the same batches to marking.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import GroupKeyServer  # noqa: E402
from repro.errors import (  # noqa: E402
    ConfigurationError,
    DuplicateUserError,
    UnknownUserError,
)

INITIAL = ["u%d" % i for i in range(6)]
NAMES = INITIAL + ["n%d" % i for i in range(4)]


class ListIntake:
    """The list-scan intake semantics, with tree membership as a set."""

    def __init__(self, users):
        self.members = set(users)
        self.joins = []
        self.leaves = []

    def request_join(self, user):
        if user in self.joins:
            raise DuplicateUserError(user)
        if user in self.members and user not in self.leaves:
            raise DuplicateUserError(user)
        self.joins.append(user)

    def request_leave(self, user):
        if user in self.joins:
            self.joins.remove(user)
            return
        if user in self.leaves:
            raise ConfigurationError(user)
        if user not in self.members:
            raise UnknownUserError(user)
        self.leaves.append(user)

    def rekey(self):
        joins, leaves = self.joins, self.leaves
        self.joins, self.leaves = [], []
        self.members = (self.members - set(leaves)) | set(joins)
        return joins, leaves


def outcome(call, *args):
    try:
        return call(*args)
    except (ConfigurationError, DuplicateUserError, UnknownUserError) as exc:
        return type(exc)


operations = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "rekey"]), st.sampled_from(NAMES)
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=operations)
def test_intake_matches_list_model(ops):
    server = GroupKeyServer(INITIAL)
    model = ListIntake(INITIAL)
    batches = []
    apply = server._marking.apply

    def recording_apply(tree, joins, leaves):
        batches.append((list(joins), list(leaves)))
        return apply(tree, joins=joins, leaves=leaves)

    server._marking.apply = recording_apply
    for op, name in ops:
        if op == "rekey":
            server.rekey()
            assert batches.pop() == model.rekey()
            assert set(server.users) == model.members
            continue
        assert outcome(getattr(server, "request_" + op), name) == outcome(
            getattr(model, "request_" + op), name
        )
        assert server.pending_requests == (model.joins, model.leaves)
