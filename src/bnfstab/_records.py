"""The grammar shared by the package's plain-text record formats.

Every record the package writes (HAM, NFSTATE, NONRESONANCE, POINCARE) is
a header line ``MAGIC key=value ...``, body lines of whitespace-separated
tokens, and, in every format except HAM, a closing ``END`` line after
which nothing but comments may follow.  RecordReader reads HAM and
POINCARE, and the header of NFSTATE; no command reads a NONRESONANCE
certificate back.  ``#`` starts a comment and blank lines are skipped.
Errors are FormatError, carrying the line number wherever a single line is
at fault.

RecordReader splits every line.  `body` gives the content lines of a
record past its header line by their offsets in one text: a plain text
as the package writes it, unsplit, and for any other text RecordReader's
lines.  NormalFormState.from_text reads its ledgers from that body.

`record` writes such a record and `number` renders every float the package
prints, with 17 significant digits (the template NUMBER), so that it reads
back exactly.
"""

from __future__ import annotations

import math
from array import array
from itertools import compress, count

import numpy as np

from .errors import FormatError


# the %-template of a float with 17 significant digits, which reads back
# exactly; writers of many numbers at once use it in their own templates
NUMBER = "%.17g"


def number(v):
    """v with 17 significant digits: float(number(v)) == v."""
    return NUMBER % (v,)


def record(magic, header, lines, end=True):
    """The text of one record: the header line `magic k=v ...`, the body
    lines and, with end=True, END."""
    head = " ".join([magic] + [f"{k}={v}" for k, v in header.items()])
    return "\n".join([head, *lines] + (["END"] if end else [])) + "\n"


def content_lines(text):
    """(line numbers, lines) of the lines that are not blank once their
    comment is stripped: an array of 1-based numbers and a list."""
    stripped = [raw.partition("#")[0].strip() for raw in text.splitlines()]
    return (array("l", compress(count(1), stripped)),
            list(filter(None, stripped)))


# the line breaks other than \n, and the whitespace other than space and
# tab, that str.splitlines, str.split and str.strip know in ASCII text
_OTHER_SPACE = "\r\x0b\x0c\x1c\x1d\x1e\x1f"


def body(text, magic, keys, path=None):
    """(reader, text, numbers, starts) of a record: reader the
    RecordReader of its header (end=False); the content lines past the
    header line, line i the text from starts[i] to the \\n before
    starts[i + 1]; numbers an array("l") of their line numbers; and starts
    a numpy array of their offsets, then the end of the last.

    A text is plain when it is ASCII, ends with \\n and holds no line
    break but \\n and no whitespace but space and tab, and when past its
    header line, the first that is not blank or a comment, it holds no #,
    no blank line and no line with leading or trailing space or tab.  A
    plain text holds its content lines as they are, so it is returned
    itself, neither split nor copied, and its reader reads the text up to
    the header line alone: reader.lines is empty.  Any other text is
    replaced by its reader's lines, joined by \\n.
    """
    plain = (text.isascii() and text.endswith("\n")
             and not any(c in text for c in _OTHER_SPACE))
    # the header line, text[lo:hi]
    lo = hi = 0
    while plain:
        hi = text.index("\n", lo)
        if text[lo:hi].partition("#")[0].strip():
            break
        lo = hi + 1
        plain = lo < len(text)
    if plain and text.find("#", hi) < 0:
        data, starts = _offsets(text, hi + 1)
        # no line starts with \n, space or tab, and none ends with space or
        # tab; the byte before a first line that is blank is data[hi], \n
        if not (np.isin(data[starts[:-1]], list(b"\n \t")).any()
                or np.isin(data[starts[1:] - 2], list(b" \t")).any()):
            reader = RecordReader(text[:hi + 1], magic, keys, path=path,
                                  end=False)
            first = reader.lineno + 1
            numbers = np.arange(first, first + len(starts) - 1, dtype="l")
            return reader, text, array("l", numbers.tobytes()), starts
    reader = RecordReader(text, magic, keys, path=path, end=False)
    text = "\n".join([*reader.lines, ""])
    return reader, text, reader.linenos, _offsets(text, 0)[1]


def _offsets(text, lo):
    """The bytes of text, one for each character, and the offsets of its
    lines from offset lo on, then len(text)."""
    data = np.frombuffer(text.encode("ascii", "replace"), np.uint8)
    return data, np.concatenate(
        [[lo], lo + 1 + np.flatnonzero(data[lo:] == ord("\n"))])


def finite_floats(tokens, what, line=None, path=None):
    """The tokens as floats; FormatError unless each is a finite number."""
    try:
        vals = [float(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"bad {what}: {exc}", line=line, path=path) from None
    if not all(map(math.isfinite, vals)):
        raise FormatError(f"non-finite value in {what}", line=line, path=path)
    return vals


class RecordReader:
    """One record, its content lines read in one pass.

    The constructor reads the header.  `keys` maps each header key to the
    function that converts its value; a key that is missing, unknown,
    repeated or does not convert is an error.  `lines` and `linenos` hold
    the body's content lines and their numbers.  With end=True the body
    stops before END, and a missing END or content after it is the fault
    that `close` raises, once the caller has read the body for the faults
    before it.  Iterating yields the tokens of each body line, then closes.
    """

    def __init__(self, text, magic, keys, path=None, end=True):
        self.path = path
        linenos, lines = content_lines(text)
        if not lines:
            raise FormatError(f"empty input: no {magic} header", path=path)
        self.lineno = linenos[0]
        tokens = lines.pop(0).split()
        del linenos[0]
        if tokens[0] != magic:
            raise self.error(f"expected {magic} header")
        try:
            kv = {}
            for key, value in (t.split("=", 1) for t in tokens[1:]):
                if key in kv:
                    raise self.error(f"repeated {magic} header field {key!r}")
                kv[key] = value
            self.header = {key: convert(kv.pop(key))
                           for key, convert in keys.items()}
        except (ValueError, KeyError) as exc:
            raise self.error(f"bad {magic} header: {exc}") from None
        if kv:
            raise self.error(f"unknown {magic} header fields {sorted(kv)}")
        self.linenos, self.lines = linenos, lines
        self._fault = None
        if end:
            stop = next((i for i, line in enumerate(lines) if line[0] == "E"
                         and line.split(None, 1)[0] == "END"), len(lines))
            if stop == len(lines):
                self._fault = FormatError("missing END", path=path)
            elif stop + 1 < len(lines):
                self._fault = FormatError(
                    "content after END", line=linenos[stop + 1], path=path)
            del linenos[stop:], lines[stop:]

    def error(self, message):
        """A FormatError located at the line read last."""
        return FormatError(message, line=self.lineno, path=self.path)

    def finite(self, tokens, what):
        """finite_floats located at the line read last."""
        return finite_floats(tokens, what, line=self.lineno, path=self.path)

    def close(self):
        """Raise the fault at the end of the record, if there is one."""
        if self._fault is not None:
            raise self._fault

    def __iter__(self):
        for self.lineno, line in zip(self.linenos, self.lines):
            yield line.split()
        self.close()
