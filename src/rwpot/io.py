"""Deterministic, atomic file output.

All artifacts are written to a temporary file in the destination directory
and renamed into place, so readers never observe partial files. Numeric
formatting is fixed (17 significant digits, LF line endings, sorted JSON
keys) so identical inputs produce byte-identical files regardless of
platform.
"""

import csv
import io as _io
import json
import os
import tempfile


def _atomic_write_bytes(path, data):
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    _atomic_write_bytes(path, text.encode("utf-8"))


def format_number(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return "%.17g" % float(v)


def write_csv(path, header, rows):
    """RFC-4180 CSV with LF endings and fixed float formatting."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    w.writerow(list(header))
    for row in rows:
        w.writerow([c if isinstance(c, str) else format_number(c) for c in row])
    atomic_write_text(path, buf.getvalue())


def json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"


def write_json(path, obj):
    atomic_write_text(path, json_dumps(obj))


def sha256_of_json(obj):
    import hashlib  # loads OpenSSL (about 4 ms and 4 MB): on the first hash only

    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def sha256_of_file(path):
    import hashlib

    h = hashlib.sha256()
    with open(str(path), "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
