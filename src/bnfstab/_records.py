"""The grammar shared by the package's plain-text record formats.

Every artifact the package reads back (HAM, NFSTATE, NONRESONANCE,
POINCARE) is one record: a header line ``MAGIC key=value ...``, body lines
of whitespace-separated tokens, and, in every format except HAM, a closing
``END`` line after which nothing but comments may follow.  ``#`` starts a
comment and blank lines are skipped.  Errors are FormatError, carrying the
line number wherever a single line is at fault.

`record` writes such a record and `number` renders every float the package
prints, with 17 significant digits (the template NUMBER), so that it reads
back exactly.
"""

from __future__ import annotations

import math

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
    """(1-based line number, line) of every line that is not blank once its
    comment is stripped."""
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if line:
            yield lineno, line


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
    """One record, read line by line.

    The constructor reads the header.  `keys` maps each header key to the
    function that converts its value; a key that is missing, unknown,
    repeated or does not convert is an error.  Iterating yields the tokens
    of each body line.  With end=True the body stops at END, and a missing
    END or any content after it is an error.
    """

    def __init__(self, text, magic, keys, path=None, end=True):
        self.path = path
        self._end = end
        self._lines = content_lines(text)
        self.lineno, line = next(self._lines, (None, None))
        if line is None:
            raise FormatError(f"empty input: no {magic} header", path=path)
        tokens = line.split()
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

    def error(self, message):
        """A FormatError located at the line read last."""
        return FormatError(message, line=self.lineno, path=self.path)

    def finite(self, tokens, what):
        """finite_floats located at the line read last."""
        return finite_floats(tokens, what, line=self.lineno, path=self.path)

    def __iter__(self):
        for self.lineno, line in self._lines:
            tokens = line.split()
            if self._end and tokens[0] == "END":
                for self.lineno, _ in self._lines:
                    raise self.error("content after END")
                return
            yield tokens
        if self._end:
            raise FormatError("missing END", path=self.path)
