"""Mutated input files never break the CLI's error contract.

Each example edits the bytes or lines of a small valid input file, then runs
the subcommand that reads it in-process. Whatever the edit, the run exits 0,
1 or 2; exit 1 prints exactly one ``error:`` line; no exception or numpy
warning escapes (the test settings turn RuntimeWarning into an error); and a
failed run leaves none of its output files behind.

Scenario files go only through the reader, never through ``simulate``: a
mutated ``t_max`` can ask for gigabytes of real memory. Reading allocates
nothing of that size, and must return a Scenario or raise a UcindexError.
Besides byte and line edits, a scenario may have one key's value replaced by
a wrongly typed or oversized one, which byte edits rarely produce.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ucindex.cli import cli_main
from ucindex.errors import UcindexError
from ucindex.io_formats import read_scenario_json
from ucindex.scenario import Scenario

SERIES = "t,a,b,c\n" + "".join(f"{t},{t}.5,{10 - t},{t * t}e-1\n" for t in range(1, 9))
COMPLIANCE = "competency_id,a,b,c\n1,1,0,1\n2,0,0,1\n"
COSTS = "competency_id,cost\n1,2.5\n2,4\n"
SCALARS = "t,basic,universal_competencies\n4,1.5,2\n5,3,2.25\n6,0,1\n"
FIXTURE = (
    "# declared_total_basic=4.50\n# declared_total_competency=5.25\n"
    "# declared_total_delta=0.75\nt,basic,universal_competencies,delta\n"
    "1,1.5,2,0.5\n2,3,3.25,0.25\n"
)

# name -> (valid file, command line for the mutated file, output paths the command may write);
# {input}, {series}, {compliance} and {out} are replaced by paths
CASES = {
    "indicator": (SERIES, "indicator {input} --window 3 --out {out}.csv", ("{out}.csv",)),
    "compare-universal": (
        SERIES,
        "compare --basic {series} --universal {input} --window 3 --standardize "
        "--warmup shrink --format csv --out {out}.csv --plot-data {out}.plot",
        ("{out}.csv", "{out}.plot"),
    ),
    "compare-compliance": (
        COMPLIANCE,
        "compare --basic {series} --compliance {input} --derive weight --window 3 --out {out}.txt",
        ("{out}.txt",),
    ),
    "check-budget-compliance": (
        COMPLIANCE, "check-budget --compliance {input} --budget 5 --unit-cost 2", (),
    ),
    "check-budget-costs": (
        COSTS, "check-budget --compliance {compliance} --costs {input} --budget 5", (),
    ),
    "report": (SCALARS, "report {input} --format csv --out {out}.csv", ("{out}.csv",)),
    "fixture-verify": (FIXTURE, "fixture-verify --fixture {input}", ()),
}

# one key per line, so line edits drop, repeat or swap keys and a token edit can replace one
SCENARIO = json.dumps({
    "t_max": 20, "n": 4, "seed": 7, "base_level": 100.0, "noise_scale": 0.5, "event_effect": 1.25,
    "events": [{"period": 4, "kind": "hire", "role": "ops", "count": 1},
               {"period": 9, "kind": "dismiss", "role": "ops", "count": 1}],
}, indent=2)

EDITS = ["replace", "insert", "delete", "token", "drop", "repeat", "swap"]
ODD_BYTES = st.sampled_from(list(b"0123456789.,-+eE_#\n\r\t \x00\xff\x85"))
ODD_TOKENS = st.sampled_from(
    ["", " ", "-1", "0", "1e308", "1e400", "-1e400", "nan", "inf", "1_0", "0x10", "1,2", "t"]
)

JSON_BYTES = st.sampled_from(list(b'0123456789.-+eE_"{}[]:,\n \x00\xff'))
JSON_KEYS = ["t_max", "n", "seed", "base_level", "noise_scale", "event_effect", "events", "period",
             "kind", "role", "count", "extra"]
JSON_VALUES = ["null", "true", '""', '"x"', '"hire"', "[]", "{}", "[{}]", "-1", "0", "2.0", "1e400",
               "NaN", "9" * 400]
JSON_TOKENS = st.one_of(
    st.sampled_from(JSON_VALUES),
    st.builds('"{}": {}'.format, st.sampled_from(JSON_KEYS), st.sampled_from(JSON_VALUES)),
)


# every JSON type a field does not take, and an integer too large for a float field
HOSTILE_VALUES = st.sampled_from([None, True, "x", 10**400 - 1, [[1]]])


@st.composite
def value_edited(draw, text: str) -> bytes:
    """JSON object ``text`` with one key's value replaced, at the top level or in a listed object."""
    doc = json.loads(text)
    owners = [doc, *(item for value in doc.values() if isinstance(value, list) for item in value)]
    owner, key = draw(st.sampled_from([(owner, key) for owner in owners for key in owner]))
    owner[key] = draw(HOSTILE_VALUES)
    return json.dumps(doc).encode()


@st.composite
def mutated(draw, text: str, odd_bytes=ODD_BYTES, odd_tokens=ODD_TOKENS) -> bytes:
    """``text`` after one to three random byte, token or line edits."""
    data = text.encode()
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(EDITS))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if edit in ("replace", "insert", "delete"):
            byte = bytes([draw(odd_bytes)]) if edit != "delete" else b""
            data = data[:at] + byte + data[at + (edit != "insert"):]
            continue
        lines = data.split(b"\n")
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if edit == "token":
            fields = lines[i].split(b",")
            fields[j % len(fields)] = draw(odd_tokens).encode()
            lines[i] = b",".join(fields)
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[j])
        else:
            lines[i], lines[j] = lines[j], lines[i]
        data = b"\n".join(lines)
    return data


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_the_error_contract(tmp_path_factory, case, data):
    valid, command, outputs = CASES[case]
    content = data.draw(mutated(valid), label="input")
    work = tmp_path_factory.mktemp(case)
    paths = {"input": work / "input", "series": work / "series.csv",
             "compliance": work / "compliance.csv", "out": work / "out"}
    paths["input"].write_bytes(content)
    paths["series"].write_text(SERIES, encoding="utf-8")
    paths["compliance"].write_text(COMPLIANCE, encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(command.format(**paths).split())
    errors = stderr.getvalue().splitlines()
    assert code in (0, 1, 2)
    if code == 0:
        assert errors == []
    if code == 1:
        assert len(errors) == 1 and errors[0].startswith("error: "), errors
    if code != 0:
        for output in outputs:
            assert not Path(output.format(**paths)).exists()


@settings(max_examples=400, deadline=None)
@given(content=st.one_of(mutated(SCENARIO, JSON_BYTES, JSON_TOKENS), value_edited(SCENARIO)))
def test_mutated_scenario_reads_or_raises_a_domain_error(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_bytes(content)
    with contextlib.suppress(UcindexError):
        assert isinstance(read_scenario_json(path), Scenario)
