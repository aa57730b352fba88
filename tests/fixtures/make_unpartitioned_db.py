"""Write ``unpartitioned_db/``: a database directory in the layout saved
before every table became a partitioned table.

The fixture pins that layout for ``tests/test_database.py``: a manifest
entry with ``"partitioned": false`` and no ``bounds``, one payload per
index named ``<table>.<column>.ebi``, and a WAL holding one append made
after the save.  ``expected.json`` records what that code answered after
the append: selected rows and ``c_e`` (vectors accessed) per predicate.

Run it with a checkout of commit ``fef0ada`` (the last one that saved
this layout) first on the path::

    PYTHONPATH=<checkout>/src python tests/fixtures/make_unpartitioned_db.py

It rewrites ``tests/fixtures/unpartitioned_db/`` next to this script.
"""

import json
import os
import shutil

from repro.database import Database
from repro.query.predicates import AndPredicate, Equals, InList, Range

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "unpartitioned_db")

#: Predicates replayed by the test, as (text, predicate) pairs.
PREDICATES = [
    ("v = 3", Equals("v", 3)),
    ("v in 1,4,6", InList("v", [1, 4, 6])),
    ("v in 2..5", Range("v", 2, 5)),
    ("w = b", Equals("w", "b")),
    ("w in a,d", InList("w", ["a", "d"])),
    ("v = 0 and w = c", AndPredicate((Equals("v", 0), Equals("w", "c")))),
]


def main() -> None:
    shutil.rmtree(OUT, ignore_errors=True)
    db = Database()
    db.create_table(
        "t",
        {
            "v": [(i * 7) % 8 for i in range(200)],
            "w": ["abcd"[(i // 3) % 4] for i in range(200)],
        },
    )
    db.create_index("t", "v")
    db.create_index("t", "w", kind="compressed")
    db.delete("t", 17)
    db.save(OUT)
    # Logged to the WAL after the save: recovery must replay it.
    db.append_rows("t", [{"v": i % 8, "w": "abcd"[i % 4]} for i in range(9)])
    expected = {}
    for text, predicate in PREDICATES:
        result = db.query("t", predicate)
        expected[text] = {
            "rows": result.row_ids().tolist(),
            "c_e": result.cost.vectors_accessed,
        }
    db.close()
    with open(os.path.join(OUT, "expected.json"), "w", encoding="utf-8") as f:
        json.dump(expected, f, sort_keys=True)


if __name__ == "__main__":
    main()
