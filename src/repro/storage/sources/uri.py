"""Source URIs: one-string addressing of storage backends.

The CLI (``--source ALIAS=URI``) and :meth:`Session.open_source
<repro.session.service.Session.open_source>` resolve backends through
:func:`open_source`:

``mem:PATH.csv``
    Load a CSV file into an in-memory :class:`~repro.storage.table.Table`.
``columnar:PATH``
    Open a columnar dataset directory
    (:class:`~repro.storage.sources.columnar.ColumnarFileSource`).
"""

from __future__ import annotations

from repro.errors import BindingError

#: Recognised URI schemes.
SCHEMES = ("mem", "columnar")


def is_source_uri(text: str) -> bool:
    """Whether ``text`` looks like a source URI (``scheme:...``)."""
    scheme, sep, _ = text.partition(":")
    return bool(sep) and scheme in SCHEMES


def open_source(uri: str, *, name: str | None = None):
    """Resolve a source URI to a live :class:`DataSource`.

    Example::

        open_source("columnar:/data/r.col")
        open_source("mem:workload_R.csv", name="R")
    """
    scheme, sep, rest = uri.partition(":")
    if not sep or scheme not in SCHEMES:
        raise BindingError(
            f"unrecognised source URI {uri!r}; expected one of "
            + ", ".join(f"{s}:..." for s in SCHEMES)
        )
    if scheme == "mem":
        from repro.storage.table import Table

        if not rest:
            raise BindingError(
                "mem: needs a CSV path (bare 'mem:' only makes sense where a "
                "default in-memory table already exists, e.g. CLI workloads)"
            )
        return Table.from_csv(name or "mem", rest)
    from repro.storage.sources.columnar import ColumnarFileSource

    if not rest:
        raise BindingError("columnar: needs a dataset directory path")
    return ColumnarFileSource(rest, name=name)
