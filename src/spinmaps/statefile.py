"""State files: the JSON form of a density operator that ``spinmaps run
--dump-states`` writes and ``initial = file:<path>`` reads.

A file is ``json.dumps(payload) + "\\n"`` with ``payload = {"layout":
{"ion_dims": [...], "ancilla_index": ...}, "matrix": [[re, im], ...]}``,
the matrix row-major.  :func:`dump_state` streams it in row bands and
:func:`read_state` reads it back in one pass; neither holds the whole text,
and a blocked state never becomes a dense matrix on either side.  The dump
spells each float as ``repr`` does, with an exact numpy shortest-repr
formatter (:func:`_short_texts`) for the magnitudes in ``[1e-28, 1)`` and
``json.dumps`` for the rest.
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


# The shortest-repr formatter's range: from ``_SHORT_MIN`` to below 1, so
# that ``x * 10**(16 - E)`` takes at most two exact powers of ten.
_SHORT_MIN = 1e-28
# Distance to a tie, in units of the digit rounded or of the half gap, below
# which a decision is left to ``json.dumps``.
_TIE = 1e-9
# Powers of ten, correctly rounded, and their Dekker halves (exact to 10**22).
_P10 = np.array([float(10**k) for k in range(45)])
_P10_HI = _P10 * 134217729.0 - (_P10 * 134217729.0 - _P10)
_P10_LO = _P10 - _P10_HI
_P10_INT = 10 ** np.arange(18, dtype=np.int64)
# The four ASCII digits of each of 0..9999, as the bytes of one ``uint32``
# (built from 40 kB arrays: larger import-time temporaries raise the peak RSS).
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + 48).view(np.uint32)[:, 0]


def _two_prod(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**k`` as ``hi + lo`` exactly (Dekker), for ``k <= 22``."""
    hi = a * _P10[k]
    c = a * 134217729.0
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _P10_HI[k], _P10_LO[k]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digits17(x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer ``D`` nearest to ``y = x * 10**s`` and ``y - D``, for
    ``y`` below ``2**63``: two exact products when ``s > 22``."""
    a = np.minimum(s, 22)
    p, p_lo = _two_prod(x, a)
    y, y_lo = _two_prod(p, s - a)
    y_lo += p_lo * _P10[s - a]
    d_hi = np.rint(y)
    f = (y - d_hi) + y_lo
    d_lo = np.rint(f)
    return d_hi.astype(np.int64) + d_lo.astype(np.int64), f - d_lo


def _short_texts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip texts of normal ``x`` in ``[_SHORT_MIN, 1)`` that
    are not powers of two, as ``repr`` spells them, and a mask of the values
    whose text is left to ``json.dumps`` because a decision fell near a tie.

    With ``E = floor(log10 x)``, ``y = x * 10**(16 - E)`` is rounded to the
    17-digit integer ``C`` with remainder ``R = y - C``.  Dropping the last
    digit rounds ``C`` to the nearest multiple of 10 and carries the digit
    into ``R``; the shorter text round-trips while ``|R| < H``, the half gap
    ``2**(e - 1076) * 10**(16 - E)`` of ``x`` (``e`` its biased exponent) in
    units of the 17th digit.  ``H`` lies in ``[0.55, 11.1]``, so only the
    17-digit rounding and the first digit dropped can turn on a tie (a
    later tie leaves both neighbours 50 or more from ``y``), and a digit
    dropped after the second moves ``R`` by a multiple of 100 or not at
    all.  Error bound: while the value shortens, the computed ``R`` is
    within ``2**-45`` of the exact one.  The two products are exact
    (Dekker); the tail of the second and the sums of ``_digits17`` and of
    the first two carries round values of at most 11, 19, 20, 10.5 and
    111, each within ``2**-53`` of itself: 172 * 2**-53 in all.  ``H`` is
    within ``2**-53`` of itself (a correctly rounded power of ten times an
    exact power of two).  So every rounding decision more than ``_TIE`` of
    a digit from its half, and every round-trip decision more than
    ``_TIE * H >= 5e-10`` from ``H``, is exact; the rest are marked.  The
    shortest text within the rounding interval is the nearest one of its
    length, which is the one ``repr`` picks.
    """
    n = len(x)
    e = (x.view(np.int64) >> 52).astype(np.intp)
    exp10 = np.clip(np.floor(np.log10(x)), -28, -1).astype(np.intp)
    digits, rem = _digits17(x, 16 - exp10)
    off = (digits >= _P10_INT[17]).astype(np.intp) - (digits < _P10_INT[16])
    fix = np.flatnonzero(off)  # log10 was one off, or the rounding carried into an 18th digit
    exp10[fix] = np.clip(exp10[fix] + off[fix], -28, -1)
    digits[fix], rem[fix] = _digits17(x[fix], 16 - exp10[fix])
    half_gap = np.ldexp(_P10[16 - exp10], e - 1076)
    near = (np.abs(rem) >= 0.5 - _TIE) | (digits < _P10_INT[16]) | (digits >= _P10_INT[17])
    dropped = np.zeros(n, dtype=np.intp)
    live = np.flatnonzero(~near)
    c, r, h = digits[live], rem[live], half_gap[live]
    for k in range(17):
        c, m = np.divmod(c, 10)
        t = r + m * _P10[k]
        up = t > 5 * _P10[k]
        c += up
        r = t - up * _P10[k + 1]
        gap = np.abs(r) - h
        tie = np.abs(gap) <= _TIE * h
        if k == 0:
            tie |= np.abs(t - 5) <= _TIE
        near[live[tie]] = True
        keep = (gap < 0) & ~tie
        live, c, r, h = live[keep], c[keep], r[keep], h[keep]
        digits[live], dropped[live] = c, k + 1
        if not len(live):
            break
    digits[near], dropped[near] = _P10_INT[16], 0  # any text: ``json.dumps`` writes over it
    width = np.searchsorted(_P10_INT, digits, side="right")
    lead = exp10 + dropped - 17 + width  # exponent of the first digit
    left = digits * _P10_INT[17 - width]  # the digits, left-aligned to 17
    words = np.empty((n, 5), dtype=np.uint32)
    for i, p in enumerate((16, 12, 8, 4, 0)):
        words[:, i] = _DIGITS4[left // _P10_INT[p] % 10_000]
    ascii = words.view(np.uint8)[:, 3:]  # "000" and the 17 digits
    texts = np.zeros((n, _FLOAT_TEXT), dtype=np.uint8)
    runs = np.flatnonzero(np.diff(lead, prepend=lead[:1] - 1))
    for a, b in zip(runs, np.r_[runs[1:], n]):
        zeros = -1 - lead[a]
        if zeros < 4:  # "0.000ddd"
            texts[a:b, :2] = (48, 46)
            texts[a:b, 2 : 2 + zeros] = 48
            texts[a:b, 2 + zeros : 19 + zeros] = ascii[a:b]
        else:  # "d.ddde-XX"
            texts[a:b, 0] = ascii[a:b, 0]
            texts[a:b, 1] = 46
            texts[a:b, 2:18] = ascii[a:b, 1:]
    sci = lead < -4
    end = np.where(sci, width + (width > 1), 1 - lead + width)
    texts *= np.arange(_FLOAT_TEXT) < end[:, None]
    rows = np.flatnonzero(sci)
    suffix = _DIGITS4[-lead[rows]].view(np.uint8).reshape(-1, 4)  # "00XX"
    suffix[:, :2] = (101, 45)  # "e-XX"
    texts[rows[:, None], end[rows, None] + np.arange(4)] = suffix
    return texts, near


def _magnitude_texts(mags: np.ndarray) -> np.ndarray:
    """``(len(mags), _FLOAT_TEXT)`` NUL-padded bytes of each magnitude as
    ``json.dumps`` (``float.__repr__``) spells it, in chunks of
    ``_DUMP_BAND`` values.  :func:`_short_texts` spells the values it
    covers; ``json.dumps`` spells 0, subnormal, non-finite and exact
    power-of-two values, those below ``_SHORT_MIN`` or from 1 up, and
    those :func:`_short_texts` finds near a tie."""
    texts = np.zeros((len(mags), _FLOAT_TEXT), dtype=np.uint8)
    for a in range(0, len(mags), _DUMP_BAND):
        x = mags[a : a + _DUMP_BAND]
        short = np.flatnonzero((x >= _SHORT_MIN) & (x < 1.0) & (x.view(np.int64) & ((1 << 52) - 1) != 0))
        chunk = texts[a : a + _DUMP_BAND]
        chunk[short], near = _short_texts(x[short])
        other = np.ones(len(x), dtype=bool)
        other[short[~near]] = False
        if other.any():
            spelled = json.dumps(x[other].tolist())[1:-1].split(", ")
            chunk[other] = np.array(spelled, dtype=f"S{_FLOAT_TEXT}").view(np.uint8).reshape(-1, _FLOAT_TEXT)
    return texts


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
    distinct magnitude of the stored values is spelled once, as
    ``json.dumps`` spells it, by :func:`_magnitude_texts`: a vectorized
    shortest-repr formatter, which leaves 0, subnormal, non-finite and
    power-of-two values, values below 1e-28 or from 1 up, and the rare value
    near a rounding tie to ``json.dumps``.  An entry takes its magnitude's
    text, with a ``-`` where the sign bit is set (never on ``NaN``).  The
    body is streamed in row bands; a blocked state's bands are scattered
    from its blocks, so it never builds the dense matrix.  On a 2-core Xeon
    a dense random pure state dumps in about 0.8 s at N = 10 (1.6-1.9 s with
    ``json.dumps`` for every magnitude), and the blocked basis state
    ``010101010101`` at N = 12, whose only texts are ``0.0`` and ``1.0``,
    in 2-3 s, as before.
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
