"""Text rendering helpers."""

from repro.experiments.report import (
    fmt,
    fmt_signed_pct,
    render_table,
)


def test_render_table_alignment():
    text = render_table(
        headers=["name", "value"],
        rows=[["a", 1], ["long-name", 22]],
        title="T",
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) == {"-"}
    # All data lines share the header line's width.
    assert len(lines[3]) == len(lines[1])
    assert len(lines[4]) == len(lines[1])


def test_render_table_without_title():
    text = render_table(["x"], [[1]])
    assert text.splitlines()[0].strip() == "x"


def test_fmt_helpers():
    assert fmt(3.14159, 2) == "3.14"
    assert fmt_signed_pct(1.25) == "+1.2%"
    assert fmt_signed_pct(-1.25) == "-1.2%"
