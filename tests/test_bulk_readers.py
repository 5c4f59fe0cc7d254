"""`load_items` and the EMB1 text reader each read the one grammar the README
writes down, by array operations on one `TextTokens`. Each byte case below
has a single outcome: the corpus, the set (kind, ids, shape and float32 bits,
the values as Python's float() reads them) or the exact one-line error, with
"{p}" for the file's path. Mutated files are also compared with a per-line
reading of the grammar written here. The test names date from when each
reader had a second, per-line route; they are kept so the suite's test ids
stay stable."""

import re

import numpy as np
import pytest
from test_reader_mutations import MUTATIONS

from kgrec.content import EmbeddingMatrixFile, read_embeddings, write_embeddings_text
from kgrec.data import ItemCorpus, load_items, save_items


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:  # DatasetError included
        return str(exc)


ITEMS = {
    "lf": (b"0\tred lamp\n1\tblue tent\n", ("red lamp", "blue tent")),
    "crlf": (b"0\tred lamp\r\n1\tblue tent\r\n", ("red lamp", "blue tent")),
    "lone-cr": (b"0\tred\r1\tblue\r", ("red", "blue")),
    "non-ascii-text": ("0\tcafé lamp\n1\t東京 ✓\n".encode(), ("café lamp", "東京 ✓")),
    "ids-out-of-order": (b"2\tc\n0\ta\n1\tb\n", ("a", "b", "c")),
    "leading-zeros": (b"00\ta\n0001\tb\n", ("a", "b")),
    "id-over-18-digits": (b"0000000000000000000000\ta\n1\tb\n", ("a", "b")),
    "empty-text": (b"0\t\n1\tb\n", ("", "b")),
    "spaces-in-text": (b"0\t  red  \n1\t \n", ("  red  ", " ")),
    "blank-lines": (b"\n0\tred\n\n1\tblue\n\n", ("red", "blue")),
    "spaces-around-id": (b" 0 \tred\n1\tblue\n", "{p}:1: non-integer item id"),
    "tab-in-text": (b"0\tred\tlamp\n1\tblue\n", ("red\tlamp", "blue")),
    "tabs-balanced-across-lines": (b"0\ta\t1\n5\n",
                                   "{p}:2: item id 5 out of range: the file lists 2 items, so ids must be 0..1"),
    "duplicate-id": (b"0\ta\n1\tb\n1\tc\n", "{p}:3: duplicate item id 1"),
    "gap": (b"0\ta\n2\tb\n", "{p}:2: item id 2 out of range: the file lists 2 items, so ids must be 0..1"),
    "id-over-int64": (b"0\ta\n12345678901234567890\tb\n",
                      "{p}:2: item id 12345678901234567890 out of range: the file lists 2 items, so ids must be 0..1"),
    "plus-seven": (b"0\ta\n+1\tb\n", "{p}:2: non-integer item id"),
    "negative": (b"0\ta\n-1\tb\n", "{p}:2: negative item id"),
    "empty-id": (b"\ta\n0\tb\n", "{p}:1: non-integer item id"),
    "no-tab": (b"0\n1\tb\n", ("", "b")),
    "no-final-newline": (b"0\ta\n1\tb", ("a", "b")),
    "empty-file": (b"", ()),
    "arabic-indic-digit": ("0\ta\n١\tb\n".encode(), "{p}:2: non-integer item id"),
    "not-utf8": (b"0\ta\n1\tb\xff\n", "{p}:2: not UTF-8"),
    "replacement-char": ("0\t�\n".encode(), ("�",)),
}


@pytest.mark.parametrize("case", ITEMS)
def test_load_items_routes_agree(tmp_path, case):
    raw, want = ITEMS[case]
    path = tmp_path / "items.tsv"
    path.write_bytes(raw)
    assert _outcome(load_items, path) == (want.format(p=path) if isinstance(want, str) else ItemCorpus(want))


def _emb_outcome(path):
    """read_embeddings(path) as (kind, ids, shape, float32 bits) or its error text."""
    try:
        emb = read_embeddings(path)
    except ValueError as exc:
        return str(exc)
    assert emb.vectors.dtype == np.float32 and emb.ids.dtype == np.int64
    return emb.kind, emb.ids.tolist(), emb.vectors.shape, emb.vectors.view(np.uint32).tolist()


def _set(kind, ids, dim, values):
    """The outcome of a set whose values are the decimals `values`, as float() reads them."""
    with np.errstate(over="ignore"):
        vectors = np.array([float(v) for v in values.split()]).astype(np.float32).reshape(len(ids), dim)
    return kind, ids, vectors.shape, vectors.view(np.uint32).tolist()


EMB = {
    "written": (b"EMB1 item 2 3\n1 0.123456789 -1.23456789e-05 3.40282347e+38\n0 0 -0 1.40129846e-45\n",
                _set("item", [1, 0], 3, "0.123456789 -1.23456789e-05 3.40282347e+38 0 -0 1.40129846e-45")),
    "nine-digit-values": (b"EMB1 user 1 4\n7 0.100000001 0.999999881 1.00000012 16777217\n",
                          _set("user", [7], 4, "0.100000001 0.999999881 1.00000012 16777217")),
    "exponents": (b"EMB1 item 1 4\n0 1e5 -2.5e-3 1.e2 .5e+1\n", _set("item", [0], 4, "1e5 -2.5e-3 1.e2 .5e+1")),
    "float32-ties": (b"EMB1 item 1 2\n0 1.0000000596046447753906250001 1.00000005960464477539\n",
                     _set("item", [0], 2, "1.0000000596046447753906250001 1.00000005960464477539")),
    "minus-zero": (b"EMB1 item 1 3\n0 -0 -0.0 -0e7\n", _set("item", [0], 3, "-0 -0.0 -0e7")),
    "overflow": (b"EMB1 item 1 2\n0 1e39 -1e400\n", "{p}: non-finite embedding values"),
    "underflow": (b"EMB1 item 1 2\n0 1e-50 7e-46\n", _set("item", [0], 2, "1e-50 7e-46")),
    "id-above-2**53": (b"EMB1 item 2 1\n9007199254740993 1\n9223372036854775807 2\n",
                       _set("item", [2**53 + 1, 2**63 - 1], 1, "1 2")),
    "id-2**63": (b"EMB1 item 1 1\n9223372036854775808 1\n", "{p}: row 0: id 9223372036854775808 is not in [0, 2**63)"),
    "id-2**64": (b"EMB1 item 1 1\n18446744073709551616 1\n",
                 "{p}: row 0: id 18446744073709551616 is not in [0, 2**63)"),
    "id-forms": (b"EMB1 item 3 1\n+5 1\n007 2\n-0 3\n", "{p}: row 0: non-integer id '+5'"),
    "negative-id": (b"EMB1 item 1 1\n-3 1\n", "{p}: row 0: id -3 is not in [0, 2**63)"),
    "id-not-an-integer": (b"EMB1 item 2 1\n0 1\n1.0 2\n", "{p}: row 1: non-integer id '1.0'"),
    "id-with-exponent": (b"EMB1 item 1 1\n1e2 1\n", "{p}: row 0: non-integer id '1e2'"),
    "duplicate-id": (b"EMB1 user 2 1\n3 1\n3 2\n", "{p}: duplicate ids in embedding set"),
    "inf": (b"EMB1 item 1 2\n0 inf 1\n", "{p}: row 0: could not convert string to float: 'inf'"),
    "nan": (b"EMB1 item 1 2\n0 1 nan\n", "{p}: row 0: could not convert string to float: 'nan'"),
    "capital-exponent": (b"EMB1 item 1 1\n0 1E5\n", _set("item", [0], 1, "1E5")),
    "sign-inside-a-token": (b"EMB1 item 1 2\n0 1-2 3\n", "{p}: row 0: could not convert string to float: '1-2'"),
    "misplaced-line-break": (b"EMB1 item 2 2\n0 1\n2 1 3 4\n", "{p}: row 0 has 1 values, expected 2"),
    "truncated-row": (b"EMB1 item 2 2\n0 1 2\n1 3", "{p}: row 1 has 1 values, expected 2"),
    "truncated-file": (b"EMB1 item 3 1\n0 1\n1 2\n", "{p}: truncated at row 2"),
    "trailing-data": (b"EMB1 item 1 2\n0 1 2\n5\n", "{p}: trailing data after 1 rows"),
    "trailing-blank-lines": (b"EMB1 item 1 2\n0 1 2\n\n  \n", _set("item", [0], 2, "1 2")),
    "blank-row": (b"EMB1 item 2 1\n0 1\n\n1 2\n", "{p}: row 1 is blank, expected an id and 1 values"),
    "no-final-newline": (b"EMB1 item 1 2\n0 1 2", _set("item", [0], 2, "1 2")),
    "crlf": (b"EMB1 item 2 1\r\n0 1\r\n1 2\r\n", _set("item", [0, 1], 1, "1 2")),
    "lone-cr": (b"EMB1 item 2 1\r0 1\r1 2\r", _set("item", [0, 1], 1, "1 2")),
    "tabs-and-spaces": (b"EMB1 item 1 3\n  0\t1  2\t 3 \n", _set("item", [0], 3, "1 2 3")),
    "dim-zero": (b"EMB1 user 2 0\n0 \n3 \n", _set("user", [0, 3], 0, "")),
    "count-zero": (b"EMB1 item 0 4\n", _set("item", [], 4, "")),
    "huge-count": (b"EMB1 item 99999999999 2\n0 1 2\n", "{p}: truncated at row 1"),
    "huge-dim": (b"EMB1 item 1 99999999\n0 1 2\n", "{p}: row 0 has 2 values, expected 99999999"),
    "nul": (b"EMB1 item 1 2\n0 1\x00 2\n", "{p}: row 0: could not convert string to float: '1\\x00'"),
    "not-utf8": (b"EMB1 item 1 2\n0 1 2\xff\n", "{p}:2: not UTF-8"),
    "header-not-utf8": (b"EMB1 it\xffem 1 2\n0 1 2\n", "{p}:1: not UTF-8"),
    "bad-header-then-not-utf8": (b"EMB2 item 1 2\n0 1 2\xff\n", "{p}:2: not UTF-8"),
    "bad-header": (b"EMB2 item 1 2\n0 1 2\n", "{p}: not an EMB1 embedding file"),
}


@pytest.mark.parametrize("case", EMB)
def test_exchange_text_routes_agree(tmp_path, case):
    raw, want = EMB[case]
    path = tmp_path / "emb.txt"
    path.write_bytes(raw)
    assert _emb_outcome(path) == (want.format(p=path) if isinstance(want, str) else want)


@pytest.mark.parametrize("case, message", [("huge-count", "truncated at row 1"), ("huge-dim", "row 0 has 2 values")])
def test_a_header_larger_than_its_body_sizes_no_records(tmp_path, monkeypatch, case, message):
    path = tmp_path / "emb.txt"
    path.write_bytes(EMB[case][0])
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: pytest.fail("np.loadtxt sized records by the header"))
    with pytest.raises(ValueError, match=message):
        read_embeddings(path)


def test_a_value_past_float32_fails_with_no_warning_on_either_route(tmp_path, recwarn):
    path = tmp_path / "emb.txt"
    for raw in (b"EMB1 item 1 2\n0 1e39 2\n", b"EMB1 item 1 2\n0 1e39 2"):  # with and without a final LF
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="non-finite embedding values$"):
            read_embeddings(path)
    assert [str(w.message) for w in recwarn] == []  # the CLI's error stays its one stderr line


def test_ids_above_2_to_the_53_come_out_exact(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(EMB["id-above-2**53"][0])
    assert read_embeddings(path).ids.tolist() == [2**53 + 1, 2**63 - 1]


_BREAK = re.compile(rb"\r\n|\r|\n")


def _lines(path):
    """(raw, its lines split at LF, CRLF and lone CR), or the not-UTF-8 error."""
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return raw, f"{path}:{len(_BREAK.findall(raw[: exc.start])) + 1}: not UTF-8"
    lines = re.split(r"\r\n|\r|\n", text)
    return raw, lines[:-1] if lines[-1] == "" else lines


def _fields(line):
    return [f for f in re.split(r"[ \t]+", line) if f]


def _items_reference(path):
    """items.tsv read one line at a time by the README's grammar."""
    _, lines = _lines(path)
    if isinstance(lines, str):
        return lines
    numbered = [(n, line) for n, line in enumerate(lines, start=1) if _fields(line)]
    texts = {}
    for n, line in numbered:
        head, _, text = line.partition("\t")
        if not re.fullmatch(r"-?[0-9]+", head):
            return f"{path}:{n}: non-integer item id"
        if head[0] == "-":
            return f"{path}:{n}: negative item id"
        if int(head) >= len(numbered):
            k = len(numbered)
            return f"{path}:{n}: item id {int(head)} out of range: the file lists {k} items, so ids must be 0..{k - 1}"
        if int(head) in texts:
            return f"{path}:{n}: duplicate item id {int(head)}"
        texts[int(head)] = text
    return ItemCorpus(tuple(texts[i] for i in range(len(texts))))


_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _emb_reference(path):
    """An EMB1 text file read one line at a time by the README's grammar, as `_emb_outcome` gives it."""
    raw, lines = _lines(path)
    if isinstance(lines, str) or raw[:4] == b"CSEM":
        return lines if isinstance(lines, str) else None
    header = _fields(lines[0]) if lines else []
    if len(header) != 4 or header[0] != "EMB1":
        return f"{path}: not an EMB1 embedding file"
    if header[1] not in ("item", "user"):
        return f"{path}: unknown embedding kind {header[1]!r}"
    if not all(re.fullmatch(r"[0-9]+", f) for f in header[2:]):
        return f"{path}: header count {header[2]!r} and dim {header[3]!r} must be integers >= 0"
    count, dim = int(header[2]), int(header[3])
    if 8 + 4 * dim >= 2**31:
        return f"{path}: dim {dim} is too large"
    rows = []
    for r in range(count):
        if r + 1 >= len(lines):
            return f"{path}: truncated at row {r}"
        row = _fields(lines[r + 1])
        if not row:
            return f"{path}: row {r} is blank, expected an id and {dim} values"
        if len(row) != dim + 1:
            return f"{path}: row {r} has {len(row) - 1} values, expected {dim}"
        if not re.fullmatch(r"-?[0-9]+", row[0]):
            return f"{path}: row {r}: non-integer id {row[0]!r}"
        for value in row[1:]:
            if not _DECIMAL.fullmatch(value):
                return f"{path}: row {r}: could not convert string to float: {value!r}"
        if row[0][0] == "-" or int(row[0]) >= 2**63:
            return f"{path}: row {r}: id {row[0]} is not in [0, 2**63)"
        rows.append(row)
    if any(_fields(line) for line in lines[count + 1 :]):
        return f"{path}: trailing data after {count} rows"
    ids = [int(row[0]) for row in rows]
    try:
        EmbeddingMatrixFile(header[1], ids, np.array([float(v) for row in rows for v in row[1:]]).reshape(count, dim))
    except ValueError as exc:
        return f"{path}: {exc}"
    return _set(header[1], ids, dim, " ".join(v for row in rows for v in row[1:]))


def test_mutated_files_read_alike_on_both_routes(tmp_path):
    """Every mutant of a written items.tsv and EMB1 file reads as the per-line reference reads it."""
    rng = np.random.default_rng(29)
    items, emb = tmp_path / "items.tsv", tmp_path / "emb.txt"
    save_items(ItemCorpus(tuple(f"item {i} text" for i in range(40))), items)
    write_embeddings_text(EmbeddingMatrixFile("item", rng.permutation(40), rng.standard_normal((40, 3))), emb)
    outcomes = set()
    for path in (items, emb):
        raw = path.read_bytes()
        for kind, mutate in MUTATIONS.items():
            for _ in range(12):
                p, q = sorted(rng.integers(0, len(raw) + 1, size=2).tolist())
                path.write_bytes(mutate(raw, p, q, int(rng.integers(8))))
                if path == items:
                    got, want = _outcome(load_items, path), _items_reference(path)
                else:
                    got, want = _emb_outcome(path), _emb_reference(path)
                    if want is None:  # a flip made the binary magic
                        continue
                assert got == want, (kind, path.read_bytes())
                outcomes.add((path.name, isinstance(got, str)))
    assert len(outcomes) == 4, outcomes  # each reader both read and rejected some mutant


def test_written_files_read_back_bit_identically(tmp_path):
    rng = np.random.default_rng(7)
    corpus = ItemCorpus(tuple(f"café {i} lamp" for i in range(50)) + ("",))
    values = rng.standard_normal((60, 8)) * 10.0 ** rng.integers(-44, 37, size=(60, 8))  # subnormal to 4e37
    emb = EmbeddingMatrixFile("user", rng.permutation(60), values)
    save_items(corpus, tmp_path / "items.tsv")
    write_embeddings_text(emb, tmp_path / "emb.txt")
    assert load_items(tmp_path / "items.tsv") == corpus
    back = read_embeddings(tmp_path / "emb.txt")
    assert back.ids.tolist() == emb.ids.tolist()
    assert back.vectors.view(np.uint32).tolist() == emb.vectors.view(np.uint32).tolist()


def test_value_tokens_follow_the_decimal_grammar(tmp_path):
    """Short random tokens of decimal-number bytes: each is read or named as the regex reference has it."""
    rng = np.random.default_rng(31)
    path, kinds = tmp_path / "emb.txt", set()
    for _ in range(600):
        token = "".join(rng.choice(list("01.eE+-"), size=int(rng.integers(1, 7))))
        path.write_bytes(f"EMB1 item 1 2\n0 1 {token}\n".encode())
        assert _emb_outcome(path) == _emb_reference(path), token
        kinds.add(bool(_DECIMAL.fullmatch(token)))
    assert kinds == {False, True}
