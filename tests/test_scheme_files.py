"""Scheme files: the numpy parse and emit against the line-by-line oracles
in conftest, the round trip, and the memory the text codec and the class
relabeling hold at n = 961."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascheme import core
from ascheme.catalog import build_cyclotomic, build_product
from ascheme.core import (
    MAX_D,
    canonical_class_order,
    emit_scheme_file,
    parse_scheme_file,
    relabel_classes,
    scheme_from_entries,
    verify_axioms,
)
from ascheme.errors import InconsistentIntersectionNumber, TooLarge

from conftest import (
    _reference_validate_entries,
    corrupted_ladder_961,
    reference_emit_scheme_file,
    reference_parse_scheme_file,
)

# tokens a mutation inserts: the plain grammar, what int() also reads ("+1",
# "1_0", "٣", the no-break space as a separator) and what it rejects
NOISE = list("0123456789") + [
    " ", "\t", "#", "\r\n", "\n", "\n\n", "+", "-", "_", ".", "a", "x", "٣", "\xa0",
    "10", "007", "1_0", "+1", "-1", "# note\n",
]


def _outcome(parse, text):
    try:
        c = parse(text)
    except Exception as exc:  # noqa: BLE001  (the class itself is compared)
        return type(exc), getattr(exc, "line", None)
    return c.entries.dtype, c.d, c.entries.tolist()


def assert_parses_alike(text):
    assert _outcome(parse_scheme_file, text) == _outcome(reference_parse_scheme_file, text)


@st.composite
def valid_files(draw):
    """A scheme file that parses: n, d, every color on some off-diagonal
    entry, separators of spaces and tabs, CRLF or LF, comments and blank
    lines around the rows."""
    n = draw(st.integers(1, 7))
    d = 0 if n == 1 else draw(st.integers(1, min(12, n * (n - 1))))
    cells = list(range(1, d + 1))
    cells += draw(st.lists(st.integers(1, max(d, 1)), min_size=n * (n - 1) - d,
                           max_size=n * (n - 1) - d))
    cells = draw(st.permutations(cells)) if cells else []
    e = np.zeros((n, n), dtype=np.int64)
    e[~np.eye(n, dtype=bool)] = cells
    sep = st.sampled_from([" ", "  ", "\t", " \t "])
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"{n} {d}"]
    for row in e:
        line = "".join(f"{draw(sep)}{v}" for v in row)[1:]
        lines.append(line + draw(st.sampled_from(["", " ", "\t", " # row"])))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   \t"])))
    return eol.join(lines) + eol


@st.composite
def mutated_files(draw):
    text = draw(valid_files())
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and at < len(text):
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + draw(st.sampled_from(NOISE)) + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_files(), st.sampled_from([1, 3, 1 << 16]))
def test_parse_matches_line_by_line_reference(text, block):
    # small row blocks put the first bad line of a file in any block
    saved = core._BLOCK_ENTRIES
    core._BLOCK_ENTRIES = block
    try:
        assert_parses_alike(text)
    finally:
        core._BLOCK_ENTRIES = saved


def _one_digit_text(e):
    """e in the layout emit_scheme_file writes for d <= 9."""
    n, d = e.shape[0], int(e.max(initial=0))
    return f"{n} {d}\n" + "".join(" ".join(map(str, row)) + "\n" for row in e)


def _edit_header_break(draw, text):
    at = draw(st.integers(0, text.index("\n")))
    return text[:at] + draw(st.sampled_from(["\r", "\x0c", "\x1c"])) + text[at:]


def _edit_spaces(draw, text):
    spaces = [k for k, ch in enumerate(text) if ch == " "]
    if draw(st.booleans()) and spaces:
        at = draw(st.sampled_from(spaces))
        return text[:at] + " " + text[at:]
    ends = [k for k, ch in enumerate(text) if ch == "\n"]
    at = draw(st.sampled_from(ends)) if ends else len(text)
    return text[:at] + " " + text[at:]


def _edit_header_number(draw, text):
    n_txt, rest = text.split(" ", 1)
    if draw(st.booleans()):
        return draw(st.sampled_from(["+", "0"])) + text
    if draw(st.booleans()):
        return "0 " + rest
    return f"{n_txt} {draw(st.sampled_from(['+', '0']))}{rest}"


NOISE_CHARS = [tok for tok in NOISE if len(tok) == 1]
LAYOUT_EDITS = [
    _edit_header_break,
    _edit_spaces,
    _edit_header_number,
    lambda draw, text: text[:-1],
    lambda draw, text: "\n" + text,
]


@st.composite
def one_digit_files(draw):
    """A valid coloring with d <= 9 in the emitted layout, then 0-2 edits:
    a NOISE token inserted or a character deleted, as mutated_files does,
    a character replaced by a one-character NOISE token, which keeps the
    length of the text, or an edit that breaks the layout alone (a line
    break inside the header, a doubled or trailing space, no final
    newline, a leading blank line, a '+' or '0' before a header number, a
    header n of 0)."""
    n = draw(st.integers(1, 9))
    d = 0 if n == 1 else draw(st.integers(1, min(9, n * (n - 1))))
    cells = list(range(1, d + 1))
    cells += draw(st.lists(st.integers(1, max(d, 1)), min_size=n * (n - 1) - d,
                           max_size=n * (n - 1) - d))
    e = np.zeros((n, n), dtype=np.int64)
    e[~np.eye(n, dtype=bool)] = draw(st.permutations(cells)) if cells else []
    text = _one_digit_text(e)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["noise", "delete", "replace", "layout"]))
        at = draw(st.integers(0, len(text) - 1)) if text else 0
        if kind == "noise":
            text = text[:at] + draw(st.sampled_from(NOISE)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        elif kind == "replace":
            text = text[:at] + draw(st.sampled_from(NOISE_CHARS)) + text[at + 1:]
        elif "\n" in text and " " in text:
            text = draw(st.sampled_from(LAYOUT_EDITS))(draw, text)
    return text


@settings(max_examples=400, deadline=None)
@given(one_digit_files(), st.sampled_from([1, 3, 1 << 16]))
def test_parse_of_the_one_digit_layout_matches_reference(text, block):
    # the strided decode and the line path meet at the layout's boundary
    saved = core._BLOCK_ENTRIES
    core._BLOCK_ENTRIES = block
    try:
        assert_parses_alike(text)
    finally:
        core._BLOCK_ENTRIES = saved


@pytest.mark.parametrize("text", [
    "2 1\n0 +1\n1 0\n",
    "2 1\n0 -1\n1 0\n",
    "2 1\n0 1_0\n1 0\n",
    "2 1\n0\xa01\n1 0\n",
    "2 1\n0 ١\n1 0\n",
    "2 1\n0 1\x1f\n1 0\n",
    "2 1\n0 1.0\n1 0\n",
    "2 1\n0 " + "0" * 30 + "1\n1 0\n",
    "2 1\n0 " + "9" * 19 + "\n1 0\n",
    "2 1\n0 " + "9" * 18 + "\n1 0\n",
    "2 1\n0 " + "1" * 5000 + "\n1 0\n",
    "2 1\n0 " + "9" * 25 + "\n1 0 1\n",
    "2 1\n0 " + "9" * 25 + "\n1 x\n",
    "2 1\n0 " + "9" * 25 + "\n1 0\n",
    "2 1\n0 1\n1 0 x\n",
    "2 1\n٠ 1\n1 0\n",
    "3 2\n0 1 2\n1 0 2 2\n2 x 0\n",
    "3 2\n0 1 x\n1 0 2 2\n2 1 0\n",
    "3 2\n0 1 2\n1 0 +2\n2 1 0 0\n",
])
def test_parse_unusual_lines_match_reference(text):
    assert_parses_alike(text)


def test_parse_matches_reference_across_row_blocks():
    # n = 300 spans two row blocks; break a row in the second one
    n = 300
    x = np.arange(n)
    e = np.where(x[:, None] == x, 0, 1 + (x[None, :] - x[:, None]) % 2)
    rows = [f"{n} 2\n"] + [" ".join(map(str, row)) + "\n" for row in e]
    assert core._row_blocks(n)[1][0] < 250
    assert_parses_alike("".join(rows))
    for edit in ("+", "x", "\t", "\xa0"):
        bad = rows[:290] + [rows[290].replace(" ", f" {edit}", 1)] + rows[291:]
        assert_parses_alike("".join(bad))
    short = rows[:250] + [rows[250].rsplit(" ", 1)[0] + "\n"] + rows[251:]
    assert_parses_alike("".join(short))


def test_parse_reads_every_catalog_file_as_the_reference(catalog):
    for s in catalog.values():
        text = reference_emit_scheme_file(s)
        c = parse_scheme_file(text)
        ref = reference_parse_scheme_file(text)
        assert c.d == ref.d and c.entries.dtype == ref.entries.dtype
        assert np.array_equal(c.entries, ref.entries)


# --- emit ---------------------------------------------------------------------


def _direct_31_2_squared():
    c = build_cyclotomic(31, 2)
    return build_product(c, c, "direct")


@pytest.fixture(scope="module")
def ladder_schemes():
    """The size-ladder builders of the benchmark, up to n = 961."""
    return {
        "cyclotomic-101-2": build_cyclotomic(101, 2),
        "cyclotomic-241-6": build_cyclotomic(241, 6),
        "cyclotomic-256-5": build_cyclotomic(256, 5),
        "cyclotomic-257-2": build_cyclotomic(257, 2),
        "direct-31-2-squared": _direct_31_2_squared(),
    }


def test_emit_matches_reference_on_the_catalog(catalog):
    assert len(catalog) == 45
    for eid, s in catalog.items():
        assert emit_scheme_file(s) == reference_emit_scheme_file(s), eid


def test_emit_matches_reference_on_the_ladder(ladder_schemes):
    for name, s in ladder_schemes.items():
        assert emit_scheme_file(s) == reference_emit_scheme_file(s), name


def test_emit_two_digit_labels_match_reference():
    s = build_product(build_cyclotomic(13, 12), build_cyclotomic(3, 2), "wreath")
    assert s.d == 14
    text = emit_scheme_file(s)
    assert text == reference_emit_scheme_file(s)
    assert " 14" in text and " 10" in text


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_emit_parse_round_trip_is_the_canonical_relabeling(catalog, data):
    s = catalog[data.draw(st.sampled_from(sorted(catalog)))]
    vperm = np.asarray(data.draw(st.permutations(range(s.n))))
    lut = np.asarray([0] + list(data.draw(st.permutations(range(1, s.d + 1)))))
    t = scheme_from_entries(lut[s.color.entries[np.ix_(vperm, vperm)]], s.d)
    text = emit_scheme_file(t)
    c = parse_scheme_file(text)
    perm = np.asarray(canonical_class_order(t))
    assert c.d == t.d
    assert np.array_equal(c.entries, perm[t.color.entries])
    assert emit_scheme_file(verify_axioms(c)) == text


# --- which texts the strided decode reads ---------------------------------------


def _no_decode(*args):
    raise AssertionError("a decoder ran that this text must not reach")


def _witness(c):
    with pytest.raises(InconsistentIntersectionNumber) as info:
        verify_axioms(c)
    exc = info.value
    return (str(exc), exc.i, exc.j, exc.l, exc.pair_a, exc.pair_b,
            exc.count_a, exc.count_b)


def test_emitted_one_digit_texts_never_reach_the_line_path(
        catalog, ladder_schemes, monkeypatch):
    texts = [emit_scheme_file(s) for s in [*catalog.values(), *ladder_schemes.values()]]
    e, d = corrupted_ladder_961()
    corrupted = _one_digit_text(e)
    line_path = parse_scheme_file(corrupted.replace("\n", "\r\n"))
    monkeypatch.setattr(core, "_decode_rows", _no_decode)
    for text in texts:
        c, ref = parse_scheme_file(text), reference_parse_scheme_file(text)
        assert c.d == ref.d and c.entries.dtype == ref.entries.dtype
        assert np.array_equal(c.entries, ref.entries)
        assert not c.entries.flags.writeable
    c = parse_scheme_file(corrupted)
    assert c.d == d and np.array_equal(c.entries, e)
    assert _witness(c) == _witness(line_path)


def test_emitted_two_digit_text_takes_the_line_path(monkeypatch):
    s = build_product(build_cyclotomic(13, 12), build_cyclotomic(3, 2), "wreath")
    text = emit_scheme_file(s)
    calls = []

    def decode_rows(lines, n, decode=core._decode_rows):
        calls.append(len(lines))
        return decode(lines, n)

    monkeypatch.setattr(core, "_decode_rows", decode_rows)
    c = parse_scheme_file(text)
    assert sum(calls) == s.n
    assert np.array_equal(c.entries, reference_parse_scheme_file(text).entries)


# --- memory at n = 961 ------------------------------------------------------------


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_text_codec_peak_memory_at_n_961(ladder_schemes):
    # the int()/str() codec peaked at 11.1 MB to emit this scheme
    # emit first relabels the classes into canonical order, as here
    s = relabel_classes(ladder_schemes["direct-31-2-squared"], (0,) + tuple(range(8, 0, -1)))
    assert canonical_class_order(s) != tuple(range(s.d + 1))
    text = reference_emit_scheme_file(s)
    # the line path parsed this text at 16.7 MB, with an int64 matrix and
    # its int32 copy; the strided uint8 view peaks at 4.6 MB, the uint8
    # matrix and the int32 one, and one n x n int64 transient passes 7.4 MB
    assert _peak(parse_scheme_file, text) < 5.5e6
    assert _peak(emit_scheme_file, s) < 11.1e6


def test_relabel_peak_memory_at_n_961(ladder_schemes):
    # take in row blocks: the intp cast of the whole index matrix once
    # made the peak three times the int32 output
    s = ladder_schemes["direct-31-2-squared"]
    perm = (0,) + tuple(range(s.d, 0, -1))
    out = 4 * s.n * s.n
    assert _peak(relabel_classes, s, perm) < 2 * out
    assert _peak(core.merge_classes, s, [[0], list(range(1, s.d + 1))]) < 2 * out
    assert np.array_equal(relabel_classes(s, perm).color.entries,
                          np.asarray(perm)[s.color.entries])



def test_validate_entries_peak_memory_at_n_961(ladder_schemes):
    # the range check once copied the int64 entries to blank the diagonal:
    # a peak of 9.2 MB, above the 7.4 MB of the matrix itself
    e = ladder_schemes["direct-31-2-squared"].color.entries.astype(np.int64)
    assert _peak(core._validate_entries, e, 8) < e.nbytes


def _validation_error(validate, arr, d):
    try:
        validate(arr, d, row_loc=lambda r: r + 2)
    except Exception as exc:  # noqa: BLE001  (the class itself is compared)
        return type(exc), str(exc), exc.line, exc.col
    return None


def test_validate_entries_names_the_reference_entry():
    """The first bad entry, its line, column and message, are those of the
    copying range check kept in conftest."""
    base = build_cyclotomic(13, 4).color.entries.astype(np.int64)
    rng = np.random.default_rng(11)
    for _ in range(300):
        bad = base.copy()
        k = int(rng.integers(1, 4))
        rows, cols = rng.integers(0, 13, size=(2, k))
        bad[rows, cols] = rng.integers(-2, 7, size=k)
        assert _validation_error(core._validate_entries, bad, 4) == _validation_error(
            _reference_validate_entries, bad, 4
        )


def test_header_size_guard_precedes_decoding(monkeypatch):
    """A header n beyond MAX_N (patched to 8 here, so the file stays small)
    or d beyond MAX_D raises TooLarge before any row is decoded, by the
    strided decode (k9 is in the emitted layout) or the line path, and the
    line-by-line reference raises it too."""
    k9 = "9 1\n" + "".join(
        " ".join("0" if x == y else "1" for y in range(9)) + "\n" for x in range(9)
    )
    wide = f"3 {MAX_D + 1}\n0 1 2\n1 0 2\n1 2 0\n"
    monkeypatch.setattr(core, "MAX_N", 8)
    monkeypatch.setattr(core, "_decode_rows", _no_decode)
    monkeypatch.setattr(core, "_strided_rows", _no_decode)
    for text, message in ((k9, "n = 9 exceeds the supported maximum 8"),
                          (wide, f"d = {MAX_D + 1} exceeds")):
        with pytest.raises(TooLarge, match=message):
            parse_scheme_file(text)
    monkeypatch.undo()
    assert_parses_alike(wide)
