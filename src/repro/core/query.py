"""Query syntax and the algorithm names: what a process that routes
and validates requests needs of the engine without loading it
(:mod:`repro.core.engine` re-exports ``parse_query`` and maps each
name to its search class).
"""

from __future__ import annotations

import re
from typing import Sequence, Union

from repro.errors import EmptyQueryError

__all__ = ["ALGORITHM_NAMES", "parse_query"]

#: Every ``algorithm`` a request may name (``engine.ALGORITHMS``' keys).
ALGORITHM_NAMES = ("bidirectional", "si-backward", "mi-backward")

_QUERY_TOKEN_RE = re.compile(r'"([^"]*)"|(\S+)')


def parse_query(query: Union[str, Sequence[str]]) -> tuple[str, ...]:
    """Split a query string into keywords, honouring double quotes.

    A sequence of keywords passes through unchanged (stripped).
    """
    if isinstance(query, str):
        keywords = [
            quoted if quoted else bare
            for quoted, bare in _QUERY_TOKEN_RE.findall(query)
        ]
    else:
        keywords = [str(keyword) for keyword in query]
    keywords = [keyword.strip() for keyword in keywords if keyword.strip()]
    if not keywords:
        raise EmptyQueryError("query contains no keywords")
    return tuple(keywords)
