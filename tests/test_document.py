"""The document model: one block list, three emitters (text/markdown/HTML)."""

import html

import pytest

from repro.common.document import emit_html, emit_markdown, emit_text
from repro.obs.report import history_blocks

BLOCKS = [
    ("h1", "Report <1>"),
    ("p", "a & b"),
    ("badge", "FLAGGED", "error"),
    ("h2", "Section"),
    ("table", ["name", "value <v>"], [["alpha", 1], ["be|ta", 2.5], ["<gamma>", "x&y"]]),
    ("ul", ["first", "second <2>"]),
    ("figure", '<svg xmlns="http://www.w3.org/2000/svg"><title>chart</title></svg>'),
    ("code", '{"k": 1}'),
]


def _cells(blocks):
    for kind, *body in blocks:
        if kind == "table":
            headers, rows = body
            yield from (str(c) for c in headers)
            yield from (str(c) for row in rows for c in row)


def _assert_carried_by_every_emitter(blocks):
    text, md, doc = emit_text(blocks), emit_markdown(blocks), emit_html(blocks)
    cells = list(_cells(blocks))
    assert cells
    for cell in cells:
        assert cell in text and cell in md
        assert html.escape(cell) in doc
    # Pure functions of the block list.
    assert (text, md, doc) == (
        emit_text(blocks), emit_markdown(blocks), emit_html(blocks)
    )
    return text, md, doc


def test_one_block_list_through_all_three_emitters():
    text, md, doc = _assert_carried_by_every_emitter(BLOCKS)
    assert text.startswith("Report <1>\n==========\n")
    assert md.startswith("# Report <1>\n") and "## Section" in md
    assert "verdict: FLAGGED" in text and "**verdict: FLAGGED**" in md
    assert "- second <2>" in text and "- second <2>" in md
    # Only a graphical medium draws figures.
    assert "<svg" not in text and "<svg" not in md and "<figure><svg" in doc
    # HTML: titled by the h1, everything escaped, nothing fetched or run.
    assert doc.startswith("<!DOCTYPE html>") and doc.endswith("</html>\n")
    assert "<title>Report &lt;1&gt;</title>" in doc
    assert "<gamma>" not in doc and "a &amp; b" in doc
    assert "<script" not in doc and "<link" not in doc and "src=" not in doc
    assert doc.count("http") == doc.count('xmlns="http://www.w3.org/2000/svg"')


def test_unknown_block_kind_is_an_error_not_a_silent_skip():
    for emit in (emit_text, emit_markdown, emit_html):
        with pytest.raises(KeyError):
            emit([("para", "typo")])


HISTORY_DOCS = {
    "trend": {
        "metric": "time",
        "ok": False,
        "lines": [
            {
                "label": "run/queue/ER", "spec_sha": "ab" * 20,
                "values": [100.0, 120.0], "ewma": [100.0, 106.0],
                "changepoint": {"index": 1, "shift_pct": 20.0},
            }
        ],
    },
    "regress": {
        "metric": "time", "direction": "up", "threshold_pct": 10.0,
        "timelines_checked": 1, "ok": False,
        "findings": [
            {
                "label": "run/queue/ER", "spec_sha": "cd" * 20, "points": 5,
                "fitted": 100.0, "latest": 120.0, "deviation_pct": 20.0,
                "direction": "up",
                "linked": [{"kind": "profile", "artifacts": {"trace": "t.jsonl"}}],
            }
        ],
        "skipped": [{"label": "run/hash", "reason": "need >= 2 points"}],
    },
    "compare": {
        "ok": False,
        "rows": [
            {"label": "run/a", "spec_sha": "ef" * 20, "identical": True, "deltas": {}},
            {
                "label": "run/b", "spec_sha": "01" * 20, "identical": False,
                "deltas": {"time": {"prev": 50.0, "last": 60.0, "ratio": 1.2}},
            },
        ],
    },
    "flaky": {
        "kind": "campaign", "ok": False,
        "rows": [
            {
                "label": "campaign/queue", "spec_sha": "23" * 20, "records": 3,
                "outcomes": [
                    {"count": 2, "counters": {"violated": 0}},
                    {"count": 1, "counters": {"violated": 1}},
                ],
            }
        ],
    },
}


@pytest.mark.parametrize("query", sorted(HISTORY_DOCS))
def test_each_history_query_says_the_same_in_every_format(query):
    doc = dict(HISTORY_DOCS[query], query=query)
    text, md, page = _assert_carried_by_every_emitter(history_blocks(doc, "History"))
    assert "verdict: FLAGGED" in text and "FLAGGED" in md and ">FLAGGED<" in page
    assert ("<svg" in page) == (query == "trend")


def test_unknown_history_query_degrades_to_its_json():
    blocks = history_blocks({"query": "novel", "answer": 42}, title=None)
    assert [kind for kind, *_ in blocks] == ["code", "badge"]
    assert '"answer": 42' in emit_text(blocks)
