"""One document model: a report is a list of blocks; three emitters render it.

A block is a tuple, its kind first:

=====================================  ================================
``("h1", text)`` / ``("h2", text)``    title / section heading
``("p", text)``                        paragraph
``("badge", label, severity)``         the one-word verdict; severity
                                       (``None`` = good) colors it
``("table", headers, rows)``           rows of ``str()``-able cells
``("ul", items)``                      bullet list
``("figure", svg)``                    inline-SVG chart — needs a
                                       graphical medium, so only the
                                       HTML emitter draws it
``("code", text)``                     preformatted text
=====================================  ================================

:func:`emit_text`, :func:`emit_markdown` and :func:`emit_html` render any
block list, so what a report says is spelled once (by whoever builds the
list — :mod:`repro.obs.report`) and cannot drift between formats.  Every
emitter is a pure function of its blocks — no timestamps, no environment
— and the HTML form is one self-contained file: no script, no external
asset.  The table formatters are public on their own: the experiment
artifacts print :func:`format_table` directly.
"""

from __future__ import annotations

import html
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Block = Tuple
Rows = Sequence[Sequence[object]]
#: Block kind -> function of the block's payload.
Formatters = Dict[str, Callable[..., str]]

# ---------------------------------------------------------------------------
# Tables: one shape, three surface syntaxes
# ---------------------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Rows) -> str:
    """Render an aligned plain-text table (monospace output)."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def markdown_table(headers: Sequence[str], rows: Rows) -> str:
    """Render a pipe table (GitHub-flavoured markdown)."""
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def html_table(headers: Sequence[str], rows: Rows) -> str:
    """Render a ``<table>`` with every cell HTML-escaped."""
    out = ["<table>", "<tr>"]
    out.extend(f"<th>{html.escape(str(h))}</th>" for h in headers)
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        out.extend(f"<td>{html.escape(str(c))}</td>" for c in row)
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


# ---------------------------------------------------------------------------
# Emitters: per format, one formatting function per block kind
# ---------------------------------------------------------------------------

_CSS = """
body { font-family: sans-serif; margin: 2em auto; max-width: 64em;
       color: #222; }
h1 { border-bottom: 2px solid #222; padding-bottom: .2em; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { border: 1px solid #bbb; padding: .3em .8em; text-align: left; }
th { background: #eee; }
.badge { color: white; border-radius: .6em; padding: .1em .6em;
         font-size: .85em; }
figure { margin: 1.5em 0; }
"""

#: Badge colors per severity (``None`` = a good outcome).
_BADGE_COLOR = {
    None: "#2ca02c",
    "info": "#1f77b4",
    "warning": "#ff7f0e",
    "error": "#d62728",
}

_esc = html.escape

_TEXT: Formatters = {
    "h1": lambda text: f"{text}\n{'=' * len(text)}",
    "h2": lambda text: f"{text}\n{'-' * len(text)}",
    "p": str,
    "badge": lambda label, severity: f"verdict: {label}",
    "table": format_table,
    "ul": lambda items: "\n".join(f"- {item}" for item in items),
    "code": str,
}

_MARKDOWN: Formatters = {
    **_TEXT,
    "h1": lambda text: f"# {text}",
    "h2": lambda text: f"## {text}",
    "badge": lambda label, severity: f"**verdict: {label}**",
    "table": markdown_table,
    "code": lambda text: f"```\n{text}\n```",
}

_HTML: Formatters = {
    "h1": lambda text: f"<h1>{_esc(text)}</h1>",
    "h2": lambda text: f"<h2>{_esc(text)}</h2>",
    "p": lambda text: f"<p>{_esc(text)}</p>",
    "badge": lambda label, severity: (
        '<p>verdict: <span class="badge" style="background:'
        f'{_BADGE_COLOR[severity]}">{_esc(label)}</span></p>'
    ),
    "table": html_table,
    "ul": lambda items: (
        "<ul>" + "".join(f"<li>{_esc(item)}</li>" for item in items) + "</ul>"
    ),
    "figure": lambda svg: f"<figure>{svg}</figure>",
    "code": lambda text: f"<pre>{_esc(text)}</pre>",
}


def _emit(blocks: Iterable[Block], formats: Formatters) -> List[str]:
    """Each block through its kind's formatter.  A format without a
    figure formatter skips figures; any other unknown kind is an error."""
    return [
        formats[kind](*body)
        for kind, *body in blocks
        if kind != "figure" or kind in formats
    ]


def emit_text(blocks: Iterable[Block]) -> str:
    """Aligned plain text (CLI stdout)."""
    return "\n\n".join(_emit(blocks, _TEXT)) + "\n"


def emit_markdown(blocks: Iterable[Block]) -> str:
    """GitHub-flavoured markdown."""
    return "\n\n".join(_emit(blocks, _MARKDOWN)) + "\n"


def emit_html(blocks: Iterable[Block]) -> str:
    """One self-contained HTML document, titled by its ``h1``.

    Text is escaped; figures are embedded as the inline SVG they carry.
    """
    blocks = list(blocks)
    title = next((body[0] for kind, *body in blocks if kind == "h1"), "Report")
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        *_emit(blocks, _HTML),
        "</body></html>",
    ]
    return "\n".join(parts) + "\n"
