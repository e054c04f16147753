"""The report layer: markdown byte-compat, HTML self-containment."""

from pathlib import Path

import pytest

from repro.obs.fidelity import FIGURE_ORDER
from repro.obs.htmlreport import (
    _selftest_no_network,
    render_html,
    render_markdown,
    write_report,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def html():
    return render_html()


class TestMarkdown:
    def test_byte_compatible_with_committed_report(self):
        """``render_markdown`` (what ``repro report -o report.md``
        writes) renders the committed report.md byte for byte."""
        committed = (REPO_ROOT / "report.md").read_text()
        assert render_markdown() == committed


class TestHtml:
    def test_self_contained(self, html):
        assert _selftest_no_network(html)
        lowered = html.lower()
        assert "<script src" not in lowered
        assert "<link" not in lowered
        assert "<img" not in lowered

    def test_embeds_all_nine_figures(self, html):
        for fig in FIGURE_ORDER:
            assert f"{fig}:" in html or f">{fig}<" in html

    def test_embeds_scorecard_timelines_and_attribution(self, html):
        assert "Paper-fidelity scorecard" in html
        assert "class=\"timeline\"" in html
        assert "attribution tree" in html
        assert "hbm2e" in html  # memory-technology labels surface
        assert "differential: max9480 vs icx8360y" in html

    def test_single_document(self, html):
        assert html.count("<html") == 1
        assert html.count("</html>") == 1


class TestWriteReport:
    def test_suffix_dispatch(self, tmp_path):
        md = write_report(tmp_path / "out.md")
        assert md.read_text() == render_markdown()
        html = write_report(tmp_path / "out.html")
        text = html.read_text()
        assert text.startswith("<!doctype html>")
        assert _selftest_no_network(text)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(tmp_path / "out.html", fmt="pdf")
