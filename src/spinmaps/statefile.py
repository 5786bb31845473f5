"""State files: the JSON form of a density operator that ``spinmaps run
--dump-states`` writes and ``initial = file:<path>`` reads.

A file is ``json.dumps(payload) + "\\n"`` with ``payload = {"layout":
{"ion_dims": [...], "ancilla_index": ...}, "matrix": [[re, im], ...]}``,
the matrix row-major.  :func:`dump_state` streams it in row bands and
:func:`read_state` reads it back in one pass; neither holds the whole text,
and a blocked state never becomes a dense matrix on either side.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .register import DensityOperator, RegisterLayout, rows_to_sectors, sector_buffer, sector_rows


# Complex entries per row band of a streamed state dump.
_DUMP_BAND = 1 << 14
# Longest JSON spelling of a float magnitude: "2.2250738585072014e-308".
_FLOAT_TEXT = 23


def _entry_slots(entries: int) -> np.ndarray:
    """Byte slots of ``entries`` dumped entries, one row per float:
    ``[`` sign text ``, `` for the real part and sign text ``], `` for the
    imaginary one.  Sign and text are filled in per band, and the NUL bytes
    of the slots are dropped on writing."""
    text = 2 + _FLOAT_TEXT
    slots = np.zeros((entries, 2, text + 3), dtype=np.uint8)
    slots[:, 0, 0] = ord("[")
    slots[:, 0, text : text + 2] = np.frombuffer(b", ", np.uint8)
    slots[:, 1, text:] = np.frombuffer(b"], ", np.uint8)
    return slots.reshape(2 * entries, text + 3)


def _magnitude_texts(mags: np.ndarray) -> np.ndarray:
    """``(len(mags), _FLOAT_TEXT)`` NUL-padded bytes of each magnitude as
    ``json.dumps`` spells it, formatted by it in chunks."""
    texts = np.empty(len(mags), dtype=f"S{_FLOAT_TEXT}")
    for a in range(0, len(mags), _DUMP_BAND):
        texts[a : a + _DUMP_BAND] = json.dumps(mags[a : a + _DUMP_BAND].tolist())[1:-1].split(", ")
    return texts.view(np.uint8).reshape(len(mags), _FLOAT_TEXT)


def _ranks(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each of ``values`` in the sorted ``table`` that holds them.
    The values are searched in sorted order, in which ``searchsorted`` starts
    each search from the previous one (about 2.5x faster on a dump's band)."""
    order = np.argsort(values)
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[order] = np.searchsorted(table, values[order])
    return ranks


def dump_state(rho: DensityOperator, path: Path) -> None:
    """Write a state as JSON: layout header plus row-major [re, im] entries.

    The bytes are ``json.dumps(payload) + "\\n"`` with ``payload["matrix"]``
    the list of ``[re, im]`` floats, so every float has its shortest
    round-trip spelling (``NaN``, ``Infinity`` and ``-Infinity`` too).  Each
    distinct magnitude of the stored values is spelled once by ``json.dumps``
    and an entry takes its magnitude's text, with a ``-`` where the sign bit
    is set (never on ``NaN``).  The body is streamed in row bands; a blocked
    state's bands are scattered from its blocks, so it never builds the
    dense matrix.
    """
    layout = {"ion_dims": list(rho.layout.ion_dims), "ancilla_index": rho.layout.ancilla_index}
    head, tail = json.dumps({"layout": layout, "matrix": []}).rsplit("[]", 1)
    d = rho.layout.dim
    sectors = getattr(rho, "sectors", None)
    if sectors is None:
        stored = np.ascontiguousarray(rho.matrix, dtype=complex)

        def rows(a: int, b: int) -> np.ndarray:
            return stored[a:b]

    else:
        stored = sectors

        def rows(a: int, b: int) -> np.ndarray:
            return sector_rows(sectors, rho.layout.n_ions, a, b)

    mags = np.unique(np.abs(stored.view(float)))
    if sectors is not None and mags[0] != 0.0:
        mags = np.insert(mags, 0, 0.0)  # the value of every entry outside the blocks
    texts = _magnitude_texts(mags)
    band = min(d, max(1, _DUMP_BAND // d))
    slots = _entry_slots(band * d)
    with open(path, "wb") as out:
        out.write(f"{head}[".encode())
        for a in range(0, d, band):
            values = rows(a, min(a + band, d)).view(float).reshape(-1)
            used = slots[: len(values)]
            used[:, 1] = (np.signbit(values) & ~np.isnan(values)) * ord("-")
            used[:, 2 : 2 + _FLOAT_TEXT] = texts[_ranks(mags, np.abs(values))]
            body = used[used != 0]
            out.write(body if a + band < d else body[:-2])  # no ", " after the last entry
        out.write(f"]{tail}\n".encode())


# Characters of a state file read at a time, about a band of a blocked dump.
# A piece's text and checks peak near 0.8 MiB above the state (2.3 MiB at
# 256 KiB); the read time is the same from 64 to 512 KiB.
_READ_CHARS = 1 << 17
_SPACES = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()
# ``bytes.translate`` tables: keep only brackets and commas; drop JSON spaces;
# drop what may spell a finite number, brackets and commas; blank brackets.
_NOT_STRUCTURE = bytes(sorted(set(range(256)) - set(b"[],")))
_SPACE_BYTES = b" \t\n\r"
_NUMBER_BYTES = b"[],0123456789-+.eE"
_NO_BRACKETS = bytes.maketrans(b"[]", b"  ")
# Brackets and commas of one entry and the separator after it.
_ENTRY_STRUCTURE = b"[,],"
# Words among the numbers: the non-finite spellings of ``json``, and nothing else.
_WORD = re.compile(rb"[-+]?[A-DF-Za-df-z]+")
_WORDS = {b"NaN", b"Infinity", b"-Infinity"}


class _StateText:
    """A state file's text, read ``_READ_CHARS`` at a time: ``text[pos:]`` is
    the part not yet consumed, which starts at character ``offset + pos``."""

    def __init__(self, file) -> None:
        self.file, self.text, self.pos, self.offset, self.eof = file, "", 0, 0, False

    def read(self, size: int = 0) -> None:
        more = self.file.read(max(size, _READ_CHARS))
        self.offset += self.pos
        self.text, self.pos, self.eof = self.text[self.pos :] + more, 0, not more

    def skip_space(self) -> None:
        while True:
            self.pos = _SPACES.match(self.text, self.pos).end()
            if self.pos < len(self.text) or self.eof:
                return
            self.read()

    def expect(self, chars: str) -> str:
        """Consume the next character after spaces, which must be one of ``chars``."""
        self.skip_space()
        char = self.text[self.pos : self.pos + 1]
        if not char or char not in chars:
            raise ValueError(f"expected one of {chars!r} at character {self.offset + self.pos}")
        self.pos += 1
        return char

    def value(self):
        """Consume the next JSON value after spaces, reading on until it is whole."""
        self.skip_space()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
                if end < len(self.text) or self.eof:  # a number may go on in the next piece
                    self.pos = end
                    return value
            except json.JSONDecodeError as exc:
                if self.eof:
                    raise ValueError(f"{exc.msg} at character {self.offset + exc.pos}") from None
            self.read(len(self.text))


class _Entries:
    """A state's matrix, stored as its row-major entries arrive.

    Entries wait in ``pending`` until the layout is known and more than one
    dump band of them has arrived, so a wrong entry count fails before any
    state-sized allocation.  Then a qubit register's entries go one row band
    at a time into a sector buffer (:func:`rows_to_sectors`) while every entry
    outside the sector blocks is ``+0.0`` bit for bit, so the buffer holds the
    matrix exactly.  The first band with another entry there (nonzero, NaN or
    ``-0.0``) turns the buffer into the dense matrix (:func:`sector_rows`),
    and later entries go straight into it; the constructor's count rule then
    picks the form.  Past ``d * d`` entries they are only counted.
    """

    def __init__(self, layout: RegisterLayout | None) -> None:
        self.layout, self.count, self.pending = layout, 0, []
        self.flat = self.band = self.mat = None

    def add(self, values: np.ndarray) -> None:
        self.pending.append(values)
        self.count += len(values)
        if self.layout is not None and self.count > _DUMP_BAND:
            self._store_pending()

    def state(self, layout: RegisterLayout) -> DensityOperator:
        self.layout, d = layout, layout.dim
        if self.count != d * d:
            raise ValueError(f"{self.count} matrix entries for a {d} x {d} state")
        self._store_pending()
        if self.flat is not None:
            return DensityOperator.from_sectors(layout, self.flat)
        return DensityOperator(layout, self.mat)

    def _store_pending(self) -> None:
        n, d = self.layout.n_ions, self.layout.dim
        if self.count > d * d:
            self.pending, self.flat, self.band, self.mat = [], None, None, None
            return
        if self.flat is None and self.mat is None:
            if self.layout.ion_dims == (2,) * n:
                self.flat = sector_buffer(n)
                self.band = np.empty((min(d, max(1, _DUMP_BAND // d)), d), dtype=complex)
            else:
                self.mat = np.empty((d, d), dtype=complex)
        start = self.count - sum(len(values) for values in self.pending)
        self.pending.reverse()
        while self.pending:  # each stored piece is freed at once
            values = self.pending.pop()
            self._store(values, start)
            start += len(values)

    def _store(self, values: np.ndarray, start: int) -> None:
        """Store ``values``, the entries from row-major position ``start`` on."""
        while len(values):
            if self.mat is not None:
                self.mat.reshape(-1)[start : start + len(values)] = values
                return
            band = self.band.reshape(-1)
            at = start % len(band)
            take = min(len(values), len(band) - at)
            band[at : at + take] = values[:take]
            if at + take == len(band):
                self._store_band(start // len(band) * len(self.band))
            values, start = values[take:], start + take

    def _store_band(self, first: int) -> None:
        n, rows = self.layout.n_ions, self.band
        rows_to_sectors(rows, self.flat, n, first)
        stored = sector_rows(self.flat, n, first, first + len(rows))
        if not np.array_equal(rows.view(np.int64), stored.view(np.int64)):
            self.mat = sector_rows(self.flat, n, 0, self.layout.dim)
            self.mat[first : first + len(rows)] = rows
            self.flat = self.band = None


def _read_entries(src: _StateText, entries: _Entries) -> None:
    """Consume a matrix from just after its ``[`` through its ``]`` into
    ``entries``, one run of whole entries of the text read so far at a time.

    The brackets and commas of the text must follow ``[,],`` entry after
    entry; the first that does not either closes the matrix (a ``]`` in place
    of a separator) or is a defect.  A run ends at the last separator read.
    """
    while True:
        raw = src.text[src.pos :].encode()
        marks = raw.translate(None, _NOT_STRUCTURE)
        expected = _ENTRY_STRUCTURE * (len(marks) // 4 + 1)
        closed = marks != expected[: len(marks)]
        if not closed:
            k = len(marks) // 4
            if not k:
                if src.eof:
                    raise ValueError(f"matrix cut off after {entries.count} entries")
                if len(raw) >= _READ_CHARS:
                    raise ValueError(f"matrix entry {entries.count} is over {_READ_CHARS} characters")
                src.read()
                continue
            # the separator after entry k, before any mark of entry k + 1
            cut = raw.rfind(b",", 0, raw.rfind(b"[") if len(marks) % 4 else len(raw))
        else:
            wrong = np.frombuffer(marks, np.uint8) != np.frombuffer(expected[: len(marks)], np.uint8)
            bad = int(np.argmax(wrong))
            if marks[bad] != ord("]") or not (bad % 4 == 3 or bad == entries.count == 0):
                raise ValueError(f"misplaced {chr(marks[bad])!r} in the matrix "
                                 f"after {entries.count + bad // 4} entries")
            b = np.frombuffer(raw, np.uint8)
            cut = np.flatnonzero((b == ord("[")) | (b == ord(",")) | (b == ord("]")))[bad]
            k = (bad + 1) // 4
        run = raw[:cut]
        del raw, marks, expected  # one band's text at a time
        values = _parse_entries(run, k)
        if values is None:
            raise ValueError(f"malformed matrix entry among the {k} from entry {entries.count} "
                             f"on, at character {src.offset + src.pos}")
        entries.add(values)
        src.pos += int(cut) + 1
        if closed:
            return


def _parse_entries(run: bytes, k: int) -> np.ndarray | None:
    """The ``k`` complex entries of ``run``, ``k`` ``[re, im]`` pairs joined by
    ``,`` whose brackets and commas are in place, or ``None`` if a number or
    the space around it is not as JSON spells it."""
    if not k:
        return None if run.strip(_SPACE_BYTES) else np.empty(0, dtype=complex)
    if not _json_numbers(run):
        return None
    try:
        values = np.fromstring(run.translate(_NO_BRACKETS), sep=",")
    except ValueError:  # a number no float spelling reads, or two in one place
        return None
    return values.view(complex) if len(values) == 2 * k else None


def _json_numbers(run: bytes) -> bool:
    """Whether each place for a number in ``run`` (after ``[`` and ``,``) holds
    one spelled as JSON spells it, as far as ``np.fromstring`` does not check
    it: it also reads ``+1``, ``.5``, ``1.``, ``01``, ``nan`` and ``inf``."""
    compact = run.translate(None, _SPACE_BYTES)
    words = compact.translate(None, _NUMBER_BYTES)
    if words and not (words.isalpha() and set(_WORD.findall(compact)) <= _WORDS):
        return False
    # Each character of ``compact`` beside the one before it and the one after.
    c = np.frombuffer(b"\0\0" + compact + b"\0", np.uint8)
    char, prev, after = c[2:-1], c[1:-2], c[3:]
    digit = (c - 48) < 10  # wraps below "0"
    starts = (c == 91) | (c == 44)  # a number starts after "[" or ","
    bad = starts[2:-1] & ((after == 44) | (after == 93))  # no number in its place
    bad |= (char == 46) & ~(digit[1:-2] & digit[3:])  # ".5", "1."
    bad |= (char == 48) & digit[3:] & (starts[1:-2] | (prev == 45) & starts[:-3])  # "01", "-01"
    if b"+" in compact:
        bad |= (char == 43) & (prev | 32 != 101)  # a "+" not after "e" or "E"
    return not bad.any()


def read_state(path: Path) -> DensityOperator:
    """Read a :func:`dump_state` file.  A defect in it raises ``OSError``,
    ``ValueError`` (a malformed file or state), ``KeyError`` (a missing key)
    or ``TypeError``, ``OverflowError`` or ``RecursionError`` (a malformed
    header).

    The file is one JSON object with the keys ``layout`` and ``matrix``, in
    either order, with any JSON whitespace; other keys are read and ignored,
    and a repeated key is a defect.  It is read in one pass,
    ``_READ_CHARS`` characters at a time, and the matrix is never held as
    text or Python objects: each run of whole entries is checked against
    JSON (numbers spelled as ``json`` spells them, or ``NaN``, ``Infinity``,
    ``-Infinity``), parsed by one ``np.fromstring`` and stored in the state's
    form (:class:`_Entries`).  So a read costs the state plus about one band
    when the layout comes first, as :func:`dump_state` writes it; a matrix
    before its layout waits whole, as complex entries.  Unlike ``json``, it
    reads the integer ``-0`` as ``-0.0``, and an entry longer than
    ``_READ_CHARS`` characters is a defect.
    """
    def layout(header: dict) -> RegisterLayout:
        return RegisterLayout(tuple(header["layout"]["ion_dims"]), header["layout"]["ancilla_index"])

    with open(path, encoding="utf-8", newline="") as file:
        src, header, entries = _StateText(file), {}, None
        sep = src.expect("{")
        while sep != "}":
            key = src.value()
            if not isinstance(key, str) or key in header or (key == "matrix" and entries is not None):
                raise ValueError(f"bad or repeated key {key!r}")
            src.expect(":")
            if key == "matrix":
                src.expect("[")
                entries = _Entries(layout(header) if "layout" in header else None)
                _read_entries(src, entries)
            else:
                header[key] = src.value()
            sep = src.expect(",}")
        src.skip_space()
        if src.pos < len(src.text):
            raise ValueError(f"extra data at character {src.offset + src.pos}")
    if entries is None:
        raise KeyError("matrix")
    return entries.state(layout(header))
