"""The worker's message table, checked both ways.

Every kind ``repro.cluster.worker._handle_message`` accepts is one that
supervisor code sends, and every kind supervisor code sends is handled —
plus ``sleep``, which only tests send, to hold a worker busy.  A message
kind that only tests send cannot come back unnoticed.  (``cancel`` and
``stop`` never reach the handler: the channel's reader takes them.)
"""

import ast
import inspect
import textwrap
from pathlib import Path

import repro.cluster
from repro.cluster import worker

#: Sent only by tests: the cheap stand-in for a long search.
TEST_ONLY = {"sleep"}


def handled_kinds() -> set[str]:
    """The literals ``_handle_message`` compares ``kind`` with."""
    source = textwrap.dedent(inspect.getsource(worker._handle_message))
    return {
        node.comparators[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == "kind"
    }


def sent_kinds() -> set[str]:
    """The literal kind of every ``submit(worker_id, kind, ...)`` and
    ``_broadcast(worker_ids, kind, ...)`` call outside the worker."""
    kinds = set()
    for path in sorted(Path(repro.cluster.__file__).parent.glob("*.py")):
        if path.name == "worker.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "_broadcast")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                kinds.add(node.args[1].value)
    return kinds


def test_every_handled_kind_is_sent_and_every_sent_kind_is_handled():
    handled, sent = handled_kinds(), sent_kinds()
    assert {"request", "state", "mutate"} <= sent, sent  # the scan finds calls
    assert sorted(handled - sent - TEST_ONLY) == [], "handled, never sent"
    assert sorted(sent - handled) == [], "sent, never handled"
    assert TEST_ONLY <= handled
