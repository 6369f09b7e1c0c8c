"""TPC-C database population.

The paper loads 10 warehouses with DBT-2's standard cardinalities (100,000
items / 100,000 stock rows per warehouse / 3,000 customers per district).
Those cardinalities exist to stress a server-class machine; the throughput
*ratios* between modes come from per-transaction write and fsync counts,
which are scale-independent.  The default :class:`TpccConfig` therefore
shrinks cardinalities to laptop-simulation scale; every count is
configurable back to spec values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.rng import make_rng
from repro.sqlite.database import Connection
from repro.workloads.tpcc import schema


@dataclass(frozen=True)
class TpccConfig:
    """Cardinalities for the TPC-C database."""

    warehouses: int = 2
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    items: int = 200
    initial_orders_per_district: int = 20
    seed: int = 7


class TpccLoader:
    """Creates the schema and loads the initial database state."""

    def __init__(self, db: Connection, config: TpccConfig | None = None) -> None:
        self.db = db
        self.config = config or TpccConfig()

    def load(self) -> None:
        rng = make_rng(self.config.seed, "tpcc-load")
        db = self.db
        for ddl in schema.TABLES:
            db.execute(ddl)
        for ddl in schema.INDEXES:
            db.execute(ddl)

        cfg = self.config
        db.execute("BEGIN")
        for i in range(1, cfg.items + 1):
            db.execute(
                "INSERT INTO item VALUES (?, ?, ?, ?, ?)",
                (schema.item_rowid(i), i, f"item-{i}", round(rng.uniform(1, 100), 2), "data"),
            )
        for w in range(1, cfg.warehouses + 1):
            db.execute(
                "INSERT INTO warehouse VALUES (?, ?, ?, ?, ?)",
                (schema.warehouse_id(w), w, f"wh-{w}", round(rng.uniform(0, 0.2), 4), 300_000.0),
            )
            for i in range(1, cfg.items + 1):
                db.execute(
                    "INSERT INTO stock VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (schema.stock_id(w, i), w, i, rng.randint(10, 100), 0, 0, "stock-data"),
                )
            for d in range(1, cfg.districts_per_warehouse + 1):
                next_o_id = cfg.initial_orders_per_district + 1
                db.execute(
                    "INSERT INTO district VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        schema.district_id(w, d),
                        w,
                        d,
                        f"district-{w}-{d}",
                        round(rng.uniform(0, 0.2), 4),
                        30_000.0,
                        next_o_id,
                    ),
                )
                for c in range(1, cfg.customers_per_district + 1):
                    db.execute(
                        "INSERT INTO customer VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            schema.customer_id(w, d, c),
                            w,
                            d,
                            c,
                            f"LAST{c % 10}",
                            "GC",
                            -10.0,
                            10.0,
                            1,
                            "customer-data",
                        ),
                    )
                for o in range(1, cfg.initial_orders_per_district + 1):
                    c = rng.randint(1, cfg.customers_per_district)
                    ol_cnt = rng.randint(5, 15)
                    db.execute(
                        "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (schema.order_id(w, d, o), w, d, o, c, rng.randint(1, 10), ol_cnt, 0),
                    )
                    for number in range(1, ol_cnt + 1):
                        i = rng.randint(1, cfg.items)
                        db.execute(
                            "INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                            (
                                schema.order_line_id(w, d, o, number),
                                w,
                                d,
                                o,
                                number,
                                i,
                                rng.randint(1, 10),
                                round(rng.uniform(1, 100), 2),
                                0,
                            ),
                        )
                    # The most recent third of orders are still undelivered.
                    if o > cfg.initial_orders_per_district * 2 // 3:
                        db.execute(
                            "INSERT INTO new_order VALUES (?, ?, ?, ?)",
                            (schema.new_order_id(w, d, o), w, d, o),
                        )
        db.execute("COMMIT")
