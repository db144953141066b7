"""The document model: one block list, three emitters (text/markdown/HTML)."""

import html

import pytest

from repro.common.document import emit_html, emit_markdown, emit_text
from repro.obs.render import history_blocks

BLOCKS = [
    ("h1", "Report <1>"),
    ("p", "a & b"),
    ("badge", "FLAGGED", "error"),
    ("h2", "Section"),
    ("table", ["name", "value <v>"], [["alpha", 1], ["be|ta", 2.5], ["<gamma>", "x&y"]]),
    ("figure", '<svg xmlns="http://www.w3.org/2000/svg"><title>chart</title></svg>'),
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
    "compare": {
        "ok": False,
        "skipped_lines": 1,
        "rows": [
            {"label": "run/a", "spec_sha": "ef" * 20, "identical": True, "deltas": {}},
            {
                "label": "run/b", "spec_sha": "01" * 20, "identical": False,
                "deltas": {
                    "time": {"prev": 50.0, "last": 60.0, "ratio": 1.2},
                    "verdict": {"prev": "ok"},
                },
            },
        ],
    },
}


@pytest.mark.parametrize("query", sorted(HISTORY_DOCS))
def test_each_history_query_says_the_same_in_every_format(query):
    text, md, page = _assert_carried_by_every_emitter(
        history_blocks(HISTORY_DOCS[query], "History")
    )
    assert "verdict: FLAGGED" in text and "FLAGGED" in md and ">FLAGGED<" in page
    for out in (text, md, page):
        assert "warning: 1 unreadable ledger line(s) skipped." in out
        assert "(absent)" in out
    assert "<svg" not in page
