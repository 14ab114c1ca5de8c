"""The grammar shared by the package's plain-text record formats.

Every record the package writes (HAM, NFSTATE, NONRESONANCE, POINCARE) is
a header line ``MAGIC key=value ...``, body lines of whitespace-separated
tokens, and, in every format except HAM, a closing ``END`` line after
which nothing but comments may follow.  RecordReader reads every record a
command reads back, HAM, NFSTATE and POINCARE; no command reads a
NONRESONANCE certificate back.  ``#`` starts a comment and blank lines are
skipped.  Errors are FormatError, carrying the line number wherever a
single line is at fault.

RecordReader holds a record's body, its content lines past the header
line, as one text: a text as the package writes it, neither split nor
copied.

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
# whether a byte is \n, space or tab
_SPACE = np.isin(np.arange(256), list(b"\n \t"))


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
    """One record: its header read, and its body held as one text.

    `keys` maps each header key to the function that converts its value;
    a key that is missing, unknown, repeated or does not convert is an
    error.  Body line i, line(i), is text[starts[i]:starts[i + 1] - 1]
    (starts a numpy array), and lines(lo, hi) are lines lo..hi - 1;
    numbers (an array("l")) holds their line numbers and lead (uint8)
    their first bytes, ? for a character past ASCII.

    A text is plain when it is ASCII, ends with \\n and holds no line
    break but \\n and no whitespace but space and tab, and when past its
    header line, the first that is not blank or a comment, it holds no #,
    no blank line and no line with leading or trailing space or tab.  A
    plain text is its own body, text; any other text's body is its
    content lines past the header line, joined by \\n.

    With end=True the body stops before END, and a missing END or content
    after it is `fault`, which close() raises once the caller has read the
    body for the faults before it.  Iterating yields the tokens of each
    body line, then closes.
    """

    def __init__(self, text, magic, keys, path=None, end=True):
        self.path = path
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
        plain = plain and text.find("#", hi) < 0
        if plain:
            data, starts = _offsets(text, hi + 1)
            # no line starts or ends with \n, space or tab; the byte before
            # the \n of a blank line, which starts with \n, is \n
            plain = not (_SPACE[data[starts[:-1]]].any()
                         or _SPACE[data[starts[1:] - 2]].any())
        if plain:
            self.lineno = text.count("\n", 0, lo) + 1
            head = text[lo:hi].partition("#")[0]
            numbers = array("l", np.arange(self.lineno + 1, self.lineno
                                           + len(starts), dtype="l").tobytes())
        else:
            numbers, lines = content_lines(text)
            if not lines:
                raise FormatError(f"empty input: no {magic} header",
                                  path=path)
            self.lineno, head = numbers.pop(0), lines[0]
            text = "\n".join([*lines[1:], ""])
            data, starts = _offsets(text, 0)
        tokens = head.split()
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
        self.text, self.numbers, self.starts = text, numbers, starts
        self.lead = data[starts[:-1]]
        self.fault = None
        if end:
            total = len(numbers)
            stop = next((i for i in np.flatnonzero(self.lead == ord("E"))
                         .tolist() if self.line(i).split(None, 1)[0] == "END"),
                        total)
            if stop == total:
                self.fault = FormatError("missing END", path=path)
            elif stop + 1 < total:
                self.fault = FormatError(
                    "content after END", line=numbers[stop + 1], path=path)
            del numbers[stop:]
            self.starts, self.lead = starts[:stop + 1], self.lead[:stop]

    def line(self, i):
        """Body line i."""
        return self.text[self.starts[i]:self.starts[i + 1] - 1]

    def lines(self, lo, hi):
        """Body lines lo..hi - 1."""
        return (self.text[self.starts[lo]:self.starts[hi] - 1].split("\n")
                if lo < hi else [])

    def error(self, message):
        """A FormatError located at the line read last."""
        return FormatError(message, line=self.lineno, path=self.path)

    def finite(self, tokens, what):
        """finite_floats located at the line read last."""
        return finite_floats(tokens, what, line=self.lineno, path=self.path)

    def close(self):
        """Raise the fault at the end of the record, if there is one."""
        if self.fault is not None:
            raise self.fault

    def __iter__(self):
        for i, self.lineno in enumerate(self.numbers):
            yield self.line(i).split()
        self.close()
