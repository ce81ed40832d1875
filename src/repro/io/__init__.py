"""Reading and writing the advisor's JSON files.

Two kinds of file cross this boundary.  An *application* document
holds a conceptual model and a weighted workload — the advisor's
input, loaded by ``--json`` on the command line (``load_application``
/ ``dump_application``).  A *tagged document* is one of the advisor's
outputs — explain, profile, run report, windows or monitor — each
carrying its own ``"format"`` tag; every one of them is written by
``dump_document`` and read back by ``load_document``.  A file that
cannot be read, is not valid JSON or has the wrong shape or tag raises
a :class:`~repro.exceptions.ParseError` naming its path.
"""

from repro.io.serialize import (
    dump_application,
    dump_document,
    load_application,
    load_document,
    model_from_dict,
    model_to_dict,
    read_json,
    workload_from_dict,
    workload_to_dict,
)

__all__ = [
    "dump_application",
    "dump_document",
    "load_application",
    "load_document",
    "model_from_dict",
    "model_to_dict",
    "read_json",
    "workload_from_dict",
    "workload_to_dict",
]
