"""Session fixtures shared by the test modules."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from typing import List, NamedTuple

import pytest

from rootproj.cli import main

ENUMERATED = ("G2", "F4", "E6", "E7", "E8")


class Enumeration(NamedTuple):
    """One in-process run of `enumerate --sigma S --format json`."""

    code: int
    text: str
    err: str
    docs: List[dict]


@pytest.fixture(scope="session")
def enumerated():
    """enumerated(name) is the Enumeration of that system, one of
    ENUMERATED.  Each system is classified once per session, on first
    use; every test that reads its documents or hashes its bytes shares
    that run, so none may change the documents."""
    runs = {}

    def get(name):
        assert name in ENUMERATED, name
        if name not in runs:
            with redirect_stdout(io.StringIO()) as out, \
                    redirect_stderr(io.StringIO()) as err:
                code = main(["enumerate", "--sigma", name, "--format", "json"])
            text = out.getvalue()
            runs[name] = Enumeration(code, text, err.getvalue(),
                                     [json.loads(line)
                                      for line in text.splitlines()])
        return runs[name]

    return get
