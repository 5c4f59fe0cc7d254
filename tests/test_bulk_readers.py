"""`load_items` and the EMB1 text reader each parse a well-formed file with a
few whole-text and array operations, and any other file with their per-line
scan. On every input both routes give the same result, floats compared by
their uint32 bits, or the same error text; files the library writes take the
bulk route."""

import numpy as np
import pytest
from test_reader_mutations import MUTATIONS

from kgrec import content, data
from kgrec.content import EmbeddingMatrixFile, read_embeddings, write_embeddings_text
from kgrec.data import ItemCorpus, load_items, save_items


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:  # DatasetError included
        return str(exc)


def _routes(monkeypatch, module, name, read, path):
    """(outcome, route) of read(path): "per-line" if `module.name`, which
    only the per-line scan calls, ran, else "bulk"."""
    calls, scan = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or scan(*args))
    got = _outcome(read, path)
    monkeypatch.setattr(module, name, scan)
    return got, "per-line" if calls else "bulk"


ITEMS = {
    "lf": (b"0\tred lamp\n1\tblue tent\n", "bulk"),
    "crlf": (b"0\tred lamp\r\n1\tblue tent\r\n", "bulk"),
    "lone-cr": (b"0\tred\r1\tblue\r", "bulk"),
    "non-ascii-text": ("0\tcafé lamp\n1\t東京 ✓\n".encode(), "bulk"),
    "ids-out-of-order": (b"2\tc\n0\ta\n1\tb\n", "bulk"),
    "leading-zeros": (b"00\ta\n0001\tb\n", "bulk"),
    "id-over-18-digits": (b"0000000000000000000000\ta\n1\tb\n", "bulk"),
    "empty-text": (b"0\t\n1\tb\n", "bulk"),
    "spaces-in-text": (b"0\t  red  \n1\t \n", "bulk"),
    "blank-lines": (b"\n0\tred\n\n1\tblue\n\n", "per-line"),
    "spaces-around-id": (b" 0 \tred\n1\tblue\n", "per-line"),
    "tab-in-text": (b"0\tred\tlamp\n1\tblue\n", "per-line"),
    "tabs-balanced-across-lines": (b"0\ta\t1\n5\n", "per-line"),
    "duplicate-id": (b"0\ta\n1\tb\n1\tc\n", "per-line"),
    "gap": (b"0\ta\n2\tb\n", "per-line"),
    "id-over-int64": (b"0\ta\n12345678901234567890\tb\n", "per-line"),
    "plus-seven": (b"0\ta\n+1\tb\n", "per-line"),
    "negative": (b"0\ta\n-1\tb\n", "per-line"),
    "empty-id": (b"\ta\n0\tb\n", "per-line"),
    "no-tab": (b"0\n1\tb\n", "per-line"),
    "no-final-newline": (b"0\ta\n1\tb", "per-line"),
    "empty-file": (b"", "per-line"),
    "arabic-indic-digit": ("0\ta\n١\tb\n".encode(), "per-line"),
    "not-utf8": (b"0\ta\n1\tb\xff\n", "per-line"),
    "replacement-char": ("0\t�\n".encode(), "per-line"),
}


@pytest.mark.parametrize("case", ITEMS)
def test_load_items_routes_agree(tmp_path, monkeypatch, case):
    raw, route = ITEMS[case]
    path = tmp_path / "items.tsv"
    path.write_bytes(raw)
    got, taken = _routes(monkeypatch, data, "_items_by_line", load_items, path)
    assert (got, taken) == (_outcome(data._items_by_line, path), route)


def _declined(*args, **kwargs):
    raise ValueError("declined")


def _emb_outcome(path, per_line=False):
    """read_embeddings(path) as (kind, ids, shape, float32 bits) or its error
    text; with `per_line`, np.loadtxt fails, so the bulk route declines."""
    with pytest.MonkeyPatch.context() as patch:
        if per_line:
            patch.setattr(np, "loadtxt", _declined)
        try:
            emb = read_embeddings(path)
        except ValueError as exc:
            return str(exc)
    assert emb.vectors.dtype == np.float32 and emb.ids.dtype == np.int64
    return emb.kind, emb.ids.tolist(), emb.vectors.shape, emb.vectors.view(np.uint32).tolist()


EMB = {
    "written": (b"EMB1 item 2 3\n1 0.123456789 -1.23456789e-05 3.40282347e+38\n0 0 -0 1.40129846e-45\n", "bulk"),
    "nine-digit-values": (b"EMB1 user 1 4\n7 0.100000001 0.999999881 1.00000012 16777217\n", "bulk"),
    "exponents": (b"EMB1 item 1 4\n0 1e5 -2.5e-3 1.e2 .5e+1\n", "bulk"),
    "float32-ties": (b"EMB1 item 1 2\n0 1.0000000596046447753906250001 1.00000005960464477539\n", "bulk"),
    "minus-zero": (b"EMB1 item 1 3\n0 -0 -0.0 -0e7\n", "bulk"),
    "overflow": (b"EMB1 item 1 2\n0 1e39 -1e400\n", "bulk"),
    "underflow": (b"EMB1 item 1 2\n0 1e-50 7e-46\n", "bulk"),
    "id-above-2**53": (b"EMB1 item 2 1\n9007199254740993 1\n9223372036854775807 2\n", "bulk"),
    "id-2**63": (b"EMB1 item 1 1\n9223372036854775808 1\n", "per-line"),
    "id-2**64": (b"EMB1 item 1 1\n18446744073709551616 1\n", "per-line"),
    "id-forms": (b"EMB1 item 3 1\n+5 1\n007 2\n-0 3\n", "per-line"),
    "negative-id": (b"EMB1 item 1 1\n-3 1\n", "per-line"),
    "id-not-an-integer": (b"EMB1 item 2 1\n0 1\n1.0 2\n", "per-line"),
    "id-with-exponent": (b"EMB1 item 1 1\n1e2 1\n", "per-line"),
    "duplicate-id": (b"EMB1 user 2 1\n3 1\n3 2\n", "bulk"),
    "inf": (b"EMB1 item 1 2\n0 inf 1\n", "per-line"),
    "nan": (b"EMB1 item 1 2\n0 1 nan\n", "per-line"),
    "capital-exponent": (b"EMB1 item 1 1\n0 1E5\n", "per-line"),
    "sign-inside-a-token": (b"EMB1 item 1 2\n0 1-2 3\n", "per-line"),
    "misplaced-line-break": (b"EMB1 item 2 2\n0 1\n2 1 3 4\n", "per-line"),
    "truncated-row": (b"EMB1 item 2 2\n0 1 2\n1 3", "per-line"),
    "truncated-file": (b"EMB1 item 3 1\n0 1\n1 2\n", "per-line"),
    "trailing-data": (b"EMB1 item 1 2\n0 1 2\n5\n", "per-line"),
    "trailing-blank-lines": (b"EMB1 item 1 2\n0 1 2\n\n  \n", "per-line"),
    "blank-row": (b"EMB1 item 2 1\n0 1\n\n1 2\n", "per-line"),
    "no-final-newline": (b"EMB1 item 1 2\n0 1 2", "per-line"),
    "crlf": (b"EMB1 item 2 1\r\n0 1\r\n1 2\r\n", "bulk"),
    "lone-cr": (b"EMB1 item 2 1\r0 1\r1 2\r", "per-line"),
    "tabs-and-spaces": (b"EMB1 item 1 3\n  0\t1  2\t 3 \n", "bulk"),
    "dim-zero": (b"EMB1 user 2 0\n0 \n3 \n", "bulk"),
    "count-zero": (b"EMB1 item 0 4\n", "per-line"),
    "huge-count": (b"EMB1 item 99999999999 2\n0 1 2\n", "per-line"),
    "huge-dim": (b"EMB1 item 1 99999999\n0 1 2\n", "per-line"),
    "nul": (b"EMB1 item 1 2\n0 1\x00 2\n", "per-line"),
    "not-utf8": (b"EMB1 item 1 2\n0 1 2\xff\n", "per-line"),
    "header-not-utf8": (b"EMB1 it\xffem 1 2\n0 1 2\n", "per-line"),
    "bad-header-then-not-utf8": (b"EMB2 item 1 2\n0 1 2\xff\n", "per-line"),
    "bad-header": (b"EMB2 item 1 2\n0 1 2\n", "bulk"),
}


@pytest.mark.parametrize("case", EMB)
def test_exchange_text_routes_agree(tmp_path, monkeypatch, case):
    raw, route = EMB[case]
    path = tmp_path / "emb.txt"
    path.write_bytes(raw)
    got, taken = _routes(monkeypatch, content, "_numbered_lines", _emb_outcome, path)
    assert (got, taken) == (_emb_outcome(path, per_line=True), route)


@pytest.mark.parametrize("case, message", [("huge-count", "truncated at row 1"), ("huge-dim", "row 0 has 2 values")])
def test_a_header_larger_than_its_body_sizes_no_records(tmp_path, monkeypatch, case, message):
    path = tmp_path / "emb.txt"
    path.write_bytes(EMB[case][0])
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("np.loadtxt sized records by the header"))
    with pytest.raises(ValueError, match=message):
        read_embeddings(path)


def test_a_value_past_float32_fails_with_no_warning_on_either_route(tmp_path, recwarn):
    path = tmp_path / "emb.txt"
    for raw in (b"EMB1 item 1 2\n0 1e39 2\n", b"EMB1 item 1 2\n0 1e39 2"):  # bulk, then per-row (no final LF)
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="non-finite embedding values$"):
            read_embeddings(path)
    assert [str(w.message) for w in recwarn] == []  # the CLI's error stays its one stderr line


def test_ids_above_2_to_the_53_come_out_exact(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(EMB["id-above-2**53"][0])
    assert read_embeddings(path).ids.tolist() == [2**53 + 1, 2**63 - 1]


def test_mutated_files_read_alike_on_both_routes(tmp_path, monkeypatch):
    rng = np.random.default_rng(29)
    items, emb = tmp_path / "items.tsv", tmp_path / "emb.txt"
    save_items(ItemCorpus(tuple(f"item {i} text" for i in range(40))), items)
    write_embeddings_text(EmbeddingMatrixFile("item", rng.permutation(40), rng.standard_normal((40, 3))), emb)
    routes = set()
    for path in (items, emb):
        raw = path.read_bytes()
        for kind, mutate in MUTATIONS.items():
            for _ in range(12):
                p, q = sorted(rng.integers(0, len(raw) + 1, size=2).tolist())
                path.write_bytes(mutate(raw, p, q, int(rng.integers(8))))
                if path == items:
                    got, route = _routes(monkeypatch, data, "_items_by_line", load_items, path)
                    assert got == _outcome(data._items_by_line, path), (kind, path.read_bytes())
                else:
                    got, route = _routes(monkeypatch, content, "_numbered_lines", _emb_outcome, path)
                    assert got == _emb_outcome(path, per_line=True), (kind, path.read_bytes())
                routes.add((path.name, route))
    assert len(routes) == 4, routes  # each reader took each route at least once


def test_written_files_take_the_bulk_route(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    corpus = ItemCorpus(tuple(f"café {i} lamp" for i in range(50)) + ("",))
    values = rng.standard_normal((60, 8)) * 10.0 ** rng.integers(-44, 37, size=(60, 8))  # subnormal to 4e37
    emb = EmbeddingMatrixFile("user", rng.permutation(60), values)
    save_items(corpus, tmp_path / "items.tsv")
    write_embeddings_text(emb, tmp_path / "emb.txt")
    for module in (data, content):
        monkeypatch.setattr(module, "_numbered_lines", lambda path: pytest.fail(f"{path} was read line by line"))
    assert load_items(tmp_path / "items.tsv") == corpus
    back = read_embeddings(tmp_path / "emb.txt")
    assert back.ids.tolist() == emb.ids.tolist()
    assert back.vectors.view(np.uint32).tolist() == emb.vectors.view(np.uint32).tolist()
