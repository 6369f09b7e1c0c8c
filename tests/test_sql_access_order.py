"""The order in which statements touch pager pages, pinned under eviction.

Which page the pager evicts or spills, and when, is decided by the order in
which pages were touched (``repro.sqlite.database``, "Statement lifecycle"),
so that order is simulated state.  None of the benchmark's workloads evicts —
their pagers hold every page — so ``perf_sim_baseline.json`` cannot see a
change in it.  This pin can: three connections (rollback journal, WAL, OFF on
X-FTL) with an eight-page pager cache over a sixteen-page file-system cache
run one seeded stream of INSERT / UPDATE / DELETE / SELECT, in autocommit and
in explicit transactions, over a table with a unique index and a table
without one.  After every statement the test folds into one digest the
statement's outcome, the pager cache in LRU order with each page's dirty flag,
``sqlite.spilled_pages``, the device's command counters and the simulated
clock.  An engine change that leaves every page access in place passes it
unchanged.  The three modes must also agree with each other on every
statement's outcome: a mode that loses data shows up by name and statement
number, not only as a changed digest.

The stream binds integers and text only, with no NULL in an indexed column,
so its results do not depend on how an access path treats a NULL, float or
text bound.

Recorded at the commit before access paths were bound at plan time; the
``wal`` row alone was re-recorded when a WAL transaction began reading back
its own spilled frames (84 errors → 53, as ``rbj`` and ``off`` record), and
the ``rbj`` row alone when a rollback-journal spill began writing and
barriering the journal header before the page (device writes 4,562 → 4,868,
flushes 1,493 → 1,737; outcomes and spills unchanged).  All three rows were
re-recorded when a ``UNIQUE`` violation began naming its columns as
``sqlite3`` does (``t.a, t.b``, not a list's repr), and again when the digest
stopped folding error text: a failed statement folds its error's type only,
so wording never moves the pin (the modes still have to agree on the whole
outcome, text included).  Re-record only with
a deliberate, explained bump (all modes, or only the named ones)::

    PYTHONPATH=src:. python -m tests.pins --record access_order [MODE ...]
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

import pytest

from repro.stack import Mode, StackConfig, build_stack

from tests.pins import DATA, Pin

MODES = {"rbj": Mode.RBJ, "wal": Mode.WAL, "off": Mode.XFTL}
SEED = 11
STATEMENTS = 600

SCHEMA = [
    # ``a`` has a unique index (and a plain one); ``b`` has a plain index only.
    "CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, g INTEGER, v TEXT)",
    "CREATE UNIQUE INDEX a_k ON a (k)",
    "CREATE INDEX a_g ON a (g)",
    "CREATE TABLE b (id INTEGER PRIMARY KEY, g INTEGER, pad TEXT)",
    "CREATE INDEX b_g ON b (g)",
]


def _text(rng: random.Random) -> str:
    # Up to 160 bytes on 512-byte pages: some cells spill to overflow pages.
    return "".join(rng.choice("abcdefgh") for _ in range(rng.randint(4, 160)))


def _statement(rng: random.Random) -> tuple[str, tuple]:
    """One statement of the stream: SQL text and its arguments."""
    rowid = rng.randint(1, 90)
    key = rng.randint(1, 60)
    group = rng.randint(0, 9)
    choices = [
        ("INSERT INTO a VALUES (?, ?, ?, ?)", (rowid, key, group, _text(rng))),
        ("INSERT INTO a (k, g, v) VALUES (?, ?, ?)", (key, group, _text(rng))),
        ("INSERT INTO b VALUES (?, ?, ?)", (rowid, group, _text(rng))),
        ("INSERT INTO b (g, pad) VALUES (?, ?)", (group, _text(rng))),
        ("INSERT INTO b (g, pad) VALUES (?, ?), (?, ?)", (group, _text(rng), key % 10, "x")),
        ("UPDATE a SET v = ? WHERE id = ?", (_text(rng), rowid)),
        ("UPDATE a SET k = ?, g = ? WHERE id = ?", (key, group, rowid)),
        ("UPDATE b SET g = ?, pad = ? WHERE id = ?", (group, _text(rng), rowid)),
        ("UPDATE b SET pad = ? WHERE g = ?", (_text(rng), group)),
        ("UPDATE b SET g = g + 1 WHERE id >= ? AND id < ?", (rowid, rowid + 4)),
        ("DELETE FROM a WHERE id = ?", (rowid,)),
        ("DELETE FROM a WHERE k > ? AND k <= ?", (key, key + 2)),
        ("DELETE FROM b WHERE g = ? AND id > ?", (group, rowid)),
        ("DELETE FROM b WHERE id > ? AND id <= ?", (rowid, rowid + 3)),
        ("SELECT * FROM a WHERE id = ?", (rowid,)),
        ("SELECT id, v FROM a WHERE k = ?", (key,)),
        ("SELECT id FROM b WHERE g >= ? AND g < ? ORDER BY id", (group, group + 2)),
        ("SELECT a.id, b.id FROM a JOIN b ON b.g = a.g WHERE a.id < ?", (rowid // 4,)),
        ("SELECT COUNT(*), MAX(id) FROM b WHERE id > ?", (rowid,)),
        ("SELECT pad FROM b WHERE id = ?", (rowid,)),
    ]
    weights = [4, 3, 5, 4, 1, 3, 2, 3, 1, 1, 2, 1, 1, 1, 4, 2, 2, 1, 1, 3]
    return rng.choices(choices, weights)[0]


def _stream(rng: random.Random):
    """Statements with transaction control mixed in: long explicit
    transactions fill the eight-page cache with dirty pages, so they spill."""
    in_txn = False
    for _ in range(STATEMENTS):
        roll = rng.random()
        if not in_txn and roll < 0.04:
            in_txn = True
            yield "BEGIN", ()
        elif in_txn and roll < 0.03:
            in_txn = False
            yield ("ROLLBACK" if rng.random() < 0.3 else "COMMIT"), ()
        else:
            yield _statement(rng)
    if in_txn:
        yield "COMMIT", ()


@functools.cache
def _run(name: str) -> tuple[dict, list]:
    """The pinned row of one mode, and each statement's outcome in order."""
    stack = build_stack(
        StackConfig(
            mode=MODES[name],
            num_blocks=256,
            pages_per_block=32,
            page_size=512,
            fs_cache_pages=16,
            metrics=True,
        )
    )
    db = stack.open_database("pin.db", cache_pages=8)
    for sql in SCHEMA:
        db.execute(sql)
    digest = hashlib.sha256()
    statements = errors = 0
    outcomes = []
    for sql, args in _stream(random.Random(SEED)):
        try:
            outcome = folded = db.execute(sql, args)
        except Exception as error:  # the outcome is part of the pin: its type
            outcome = (type(error).__name__, str(error))
            folded = type(error).__name__
            errors += 1
        statements += 1
        outcomes.append(outcome)
        cache = [(pno, pno in db.pager._dirty) for pno in db.pager._cache]
        step = [
            sql,
            folded,
            cache,
            stack.obs.registry.counter_value("sqlite.spilled_pages"),
            stack.device.counters.as_dict(),
            stack.clock.now_us,
        ]
        digest.update(json.dumps(step, default=repr).encode())
    row = {
        "statements": statements,
        "errors": errors,
        "spilled_pages": stack.obs.registry.counter_value("sqlite.spilled_pages"),
        "device": stack.device.counters.as_dict(),
        "sha256": digest.hexdigest(),
    }
    return row, outcomes


PIN = Pin("access_order", DATA / "access_order_baseline.json", list(MODES), lambda m: _run(m)[0])


@pytest.mark.parametrize("name", sorted(MODES))
def test_access_order_matches_recorded_baseline(name: str) -> None:
    row = PIN.check(name)
    assert row["spilled_pages"] > 0  # the stream does evict and spill


def test_modes_agree_statement_by_statement() -> None:
    reference = _run("rbj")[1]
    for name in sorted(MODES):
        outcomes = _run(name)[1]
        differ = [i for i, (ours, theirs) in enumerate(zip(outcomes, reference)) if ours != theirs]
        assert not differ, (
            f"{name} differs from rbj on {len(differ)} statements, first at statement"
            f" {differ[0]}: {outcomes[differ[0]]!r} against {reference[differ[0]]!r}"
        )
        assert len(outcomes) == len(reference)
