"""The grammar shared by the package's plain-text record formats.

Every record the package writes (HAM, NFSTATE, NONRESONANCE, POINCARE) is
a header line ``MAGIC key=value ...``, body lines of whitespace-separated
tokens, and, in every format except HAM, a closing ``END`` line after
which nothing but comments may follow.  RecordReader reads HAM, NFSTATE
and POINCARE; no command reads a NONRESONANCE certificate back.  ``#`` starts a
comment and blank lines are skipped.  Errors are FormatError, carrying the
line number wherever a single line is at fault.

RecordReader splits every line.  `scan` finds, in one pass over a plain
text, only the lines that do not start with a digit, each with the span
of the term lines that follow it, for a reader that knows where its
structural lines must be (NormalFormState.from_text) and hands any
other text to RecordReader.

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


def scan(text, magic, keys, path=None):
    """The header and the structural lines of a plain record, its lines
    that do not start with a digit, without splitting the others.

    A text is plain when it is ASCII, ends with \\n, holds no line break
    but \\n and no whitespace but space and tab, and holds no # past its
    header line, the first line that is not blank or a comment.  For any
    other text the result is None.  For a plain one it is (reader, lines,
    numbers, spans): reader a RecordReader of the text up to the header
    line, which raises what RecordReader raises at the header (a term
    line before it included); lines the header line and the structural
    lines after it; numbers their line numbers; and spans[k] the offsets
    (lo, hi) of the lines between lines[k] and the next structural line:
    text[lo:hi] holds them, each ending with \\n, and is empty if lo == hi.
    Each of these lines starts with a digit.
    """
    if not text.isascii() or not text.endswith("\n"):
        return None
    # the header line, text[lo:hi]: the first that is not blank or a
    # comment
    lo = 0
    while True:
        hi = text.index("\n", lo)
        if text[lo:hi].partition("#")[0].strip():
            break
        lo = hi + 1
        if lo == len(text):
            return None
    if (text.find("#", hi) >= 0
            or any(c in text for c in _OTHER_SPACE)):
        return None
    reader = RecordReader(text[:hi + 1], magic, keys, path=path, end=False)
    data = np.frombuffer(text.encode(), np.uint8)
    # the \n that ends the header line and each one after it
    breaks = hi + np.flatnonzero(data[hi:] == ord("\n"))
    # the first character of each line after the header
    first = data[breaks[:-1] + 1]
    after = np.flatnonzero((first < ord("0")) | (first > ord("9")))
    numbers = [reader.lineno, *(reader.lineno + 1 + after).tolist()]
    starts = [lo, *(breaks[after] + 1).tolist(), len(text)]
    ends = [hi, *breaks[after + 1].tolist()]
    lines = [text[a:b] for a, b in zip(starts, ends)]
    spans = [(a + 1, b) for a, b in zip(ends, starts[1:])]
    return reader, lines, numbers, spans


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
