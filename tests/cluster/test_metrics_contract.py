"""docs/OBSERVABILITY.md as a checked contract (ROADMAP aim 4).

The registry is where the serving numbers live, so the document that
lists its families can be held to it: every ``family | type | labels``
table is parsed and compared with the export of a live ``QueryService``
and a live 2-worker fleet.  An undocumented family, a phantom one (in
the doc, exported by neither tier), or a type / merge-mode / label-set
mismatch fails here.  The ``route | answers`` table is held to the HTTP
front end the same way: every ``GET`` route ``repro.cluster.http``
dispatches is in it, and every route in it answers on a live server.

CI's ``ops-smoke`` job feeds one more input: ``PROMETHEUS_SCRAPE`` names
a file holding a real ``GET /metrics?format=prometheus`` body, whose
``# TYPE`` lines must agree with the same tables.
"""

import ast
import inspect
import json
import os
import re
import textwrap
import threading
from pathlib import Path

import pytest

from repro.cluster import http as http_module
from repro.service import QueryService

from tests.helpers import RawHTTP

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"
_CODE = re.compile(r"`([^`]+)`")


def table_rows(header: list[str]):
    """The cells of each body row of every table whose header row is
    ``header``."""
    in_table = False
    for line in DOC.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            in_table = False
        elif cells == header:
            in_table = True
        elif in_table and not set(cells[0]) <= set("-"):
            yield cells


def documented_families() -> dict[str, dict]:
    """``{family: {"type", "merge", "labels"}}`` from every table whose
    header row is ``| family | type | labels |``."""
    families: dict[str, dict] = {}
    for cells in table_rows(["family", "type", "labels"]):
        # An escaped pipe inside a cell (``a \| b``) splits it; the
        # label names are the backticked words before any "(".
        name = _CODE.fullmatch(cells[0]).group(1)
        kind, _, merge = cells[1].partition(" (merge=")
        labels = [
            _CODE.search(part).group(1)
            for part in "|".join(cells[2:]).split(",")
            if _CODE.search(part)
        ]
        assert name not in families, f"{name} is documented twice"
        families[name] = {
            "type": kind,
            "merge": merge.rstrip(")") or None,
            "labels": labels,
        }
    return families


def documented_routes() -> list[str]:
    """The ``GET`` paths of the ``| route | answers |`` table, a path
    parameter spelled ``<id>``."""
    routes = []
    for cells in table_rows(["route", "answers"]):
        method, path = _CODE.fullmatch(cells[0]).group(1).split(" ")
        assert method == "GET", cells[0]
        routes.append(re.sub(r"<[^>]+>", "<id>", path))
    return routes


def served_routes() -> list[str]:
    """The paths ``_Handler.do_GET`` dispatches on: ``path == "/x"`` is
    the route ``/x``, ``path.startswith("/x/")`` the route ``/x/<id>``."""
    source = textwrap.dedent(inspect.getsource(http_module._Handler.do_GET))
    routes = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name)
            and node.left.id == "path"
            and isinstance(node.ops[0], ast.Eq)
        ):
            routes.append(node.comparators[0].value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "startswith"
        ):
            routes.append(node.args[0].value + "<id>")
    return routes


def exported_shape(export: dict) -> dict[str, dict]:
    return {
        name: {
            "type": family["type"],
            # "sum" is the default and the doc leaves it unsaid
            "merge": family["merge"] if family.get("merge") == "max" else None,
            "labels": list(family["labels"]),
        }
        for name, family in export.items()
    }


@pytest.fixture(scope="module")
def exports(toy_snapshot, sharded):
    with QueryService() as service:
        service.register_snapshot("toy", toy_snapshot)
        service.search("toy", "gray transaction").raise_for_error()
        thread_tier = service.metrics()["registry"]
    return {"QueryService": thread_tier, "2-worker fleet": sharded.metrics()["registry"]}


def test_label_cells_parse_through_escaped_pipes_and_dashes():
    documented = documented_families()
    assert documented["repro_slo_burn_rate"] == {
        "type": "gauge", "merge": "max", "labels": ["objective", "window"],
    }
    assert documented["repro_cache_hits_total"]["labels"] == []


@pytest.mark.parametrize("tier", ["QueryService", "2-worker fleet"])
def test_every_exported_family_is_documented_as_exported(exports, tier):
    documented = documented_families()
    exported = exported_shape(exports[tier])
    undocumented = sorted(set(exported) - set(documented))
    assert not undocumented, f"{tier} exports families the doc omits: {undocumented}"
    mismatched = {
        name: {"doc": documented[name], tier: shape}
        for name, shape in exported.items()
        if documented[name] != shape
    }
    assert not mismatched


def test_no_documented_family_is_a_phantom(exports):
    exported = set().union(*exports.values())
    phantoms = sorted(set(documented_families()) - exported)
    assert not phantoms, f"documented but exported by neither tier: {phantoms}"


def test_every_served_route_is_documented_and_no_other():
    served, documented = served_routes(), documented_routes()
    assert len(served) == len(set(served)) and "/healthz" in served, served
    assert len(documented) == len(set(documented)), documented
    assert sorted(documented) == sorted(served)


@pytest.fixture(scope="module")
def thread_server(toy_snapshot):
    with QueryService() as service:
        service.register_snapshot("toy", toy_snapshot)
        server = http_module.make_server(service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        yield server
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("route", documented_routes())
def test_every_documented_route_answers(thread_server, route):
    with RawHTTP(thread_server) as client:
        status, _, body = client.request("GET", route.replace("<id>", "no-such-id"))
    # An unknown id may be a 404, but never the router's.
    assert status in (200, 404), (status, body)
    assert not json.loads(body).get("error", "").startswith("no route"), body


@pytest.mark.skipif(
    "PROMETHEUS_SCRAPE" not in os.environ,
    reason="needs a scraped /metrics?format=prometheus body (CI ops-smoke)",
)
def test_a_scraped_exposition_agrees_with_the_doc():
    text = Path(os.environ["PROMETHEUS_SCRAPE"]).read_text(encoding="utf-8")
    scraped = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, flags=re.MULTILINE))
    assert scraped, "no # TYPE lines in the scrape"
    documented = {name: row["type"] for name, row in documented_families().items()}
    assert scraped == {name: documented.get(name) for name in scraped}
