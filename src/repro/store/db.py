"""The SQLite-backed run database (``repro serve --db`` / ``repro report``).

One :class:`RunDatabase` file is the durable memory of a service
instance.  It holds two tables:

``jobs``
    Write-through durability for
    :class:`~repro.service.batch.BatchScheduler`.  One row per job,
    keyed by the content-hash-derived job id; the row tracks the
    lifecycle (``queued -> running -> done | failed | cancelled``),
    carries the validated request (JSON), and -- once the job finished
    -- the serialized result envelope plus its canonical
    ``runs_digest``.  A server restarted over the same database
    re-enqueues every non-terminal row (crash recovery) and answers a
    resubmission of a finished job straight from this table.

``runs``
    The run table reports are rendered from: one row per scheduled
    ``(loop, config, policy, version)`` problem -- the primary
    key is the same content hash :mod:`repro.eval.cache` and
    :func:`repro.eval.shards.plan_shards` derive -- with metrics
    columns (status, II, MII, spills, scheduling time, canonical
    digest).  Rows are upserted, so re-evaluating an identical problem
    refreshes its row instead of duplicating it.

Concurrency: the database opens in WAL journal mode with a busy
timeout, so a serving process, a fleet coordinator, and a ``repro
report`` reader can share one file -- writers briefly block each other
instead of failing, and readers never block writers.  In-process, one
connection is shared behind a lock (the stdlib ``sqlite3`` connection
is not thread-safe and the HTTP front end is threaded).
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.eval.metrics import LoopRun

__all__ = [
    "DB_SCHEMA_VERSION",
    "RunDatabase",
    "RunRow",
    "rows_from_runs",
    "run_row_to_dict",
    "run_row_from_dict",
]

#: Bumped when the table layout changes incompatibly.  A database
#: written by a newer schema is refused instead of misread.
DB_SCHEMA_VERSION: int = 1

#: Default ``PRAGMA busy_timeout`` -- how long a writer waits for a
#: concurrent writer's transaction before giving up.
DEFAULT_BUSY_TIMEOUT_S: float = 5.0


@dataclass(frozen=True)
class RunRow:
    """One row of the ``runs`` table (a registered envelope type).

    ``run_key`` is :func:`repro.eval.cache.schedule_key` -- the same
    content hash the evaluation cache and the shard planner derive for
    this ``(loop, config, machine, knobs, version)`` problem -- so the
    run table, the cache, and the checkpoint store agree on identity.
    ``digest`` is the canonical single-run digest (wall-clock zeroed,
    see :func:`repro.eval.shards.runs_digest`).
    """

    run_key: str
    loop_name: str
    config_name: str
    policy: str
    core: str
    version: str
    status: str
    ii: Optional[int] = None
    mii: Optional[int] = None
    spills: int = 0
    scheduling_time_s: float = 0.0
    digest: str = ""
    job_id: Optional[str] = None
    tier: Optional[str] = None
    seed: Optional[int] = None
    created_at: float = 0.0


def run_row_to_dict(row: RunRow) -> Dict:
    """The ``data`` payload of a serialized :class:`RunRow`."""
    return {
        "run_key": row.run_key,
        "loop_name": row.loop_name,
        "config_name": row.config_name,
        "policy": row.policy,
        "core": row.core,
        "version": row.version,
        "status": row.status,
        "ii": row.ii,
        "mii": row.mii,
        "spills": row.spills,
        "scheduling_time_s": row.scheduling_time_s,
        "digest": row.digest,
        "job_id": row.job_id,
        "tier": row.tier,
        "seed": row.seed,
        "created_at": row.created_at,
    }


def run_row_from_dict(payload: Dict) -> RunRow:
    """Rebuild a :class:`RunRow` from its ``data`` payload."""
    return RunRow(
        run_key=payload["run_key"],
        loop_name=payload["loop_name"],
        config_name=payload["config_name"],
        policy=payload["policy"],
        core=payload["core"],
        version=payload.get("version", ""),
        status=payload["status"],
        ii=None if payload.get("ii") is None else int(payload["ii"]),
        mii=None if payload.get("mii") is None else int(payload["mii"]),
        spills=int(payload.get("spills", 0)),
        scheduling_time_s=float(payload.get("scheduling_time_s", 0.0)),
        digest=payload.get("digest", ""),
        job_id=payload.get("job_id"),
        tier=payload.get("tier"),
        seed=None if payload.get("seed") is None else int(payload["seed"]),
        created_at=float(payload.get("created_at", 0.0)),
    )


def rows_from_runs(
    runs: Sequence[LoopRun],
    *,
    rf,
    machine,
    policy: str,
    budget_ratio: float = 6.0,
    scale_to_clock: bool = True,
    job_id: Optional[str] = None,
    tier: Optional[str] = None,
    seed: Optional[int] = None,
    created_at: Optional[float] = None,
) -> List[RunRow]:
    """Convert live :class:`LoopRun` objects into run-table rows.

    The single converter the local execution path, the fleet
    coordinator, and tests share, so every writer derives identical
    ``run_key``/``digest`` values for identical work.  The persisted
    ``core`` column keeps the name of the one scheduler core,
    ``"array"``.
    """
    import repro
    from repro.eval.cache import schedule_key
    from repro.eval.shards import runs_digest

    stamp = time.time() if created_at is None else created_at
    rows: List[RunRow] = []
    for run in runs:
        result = run.result
        rows.append(
            RunRow(
                run_key=schedule_key(
                    run.loop,
                    rf,
                    machine,
                    scale_to_clock=scale_to_clock,
                    budget_ratio=budget_ratio,
                    scheduler=policy,
                ),
                loop_name=result.loop_name,
                config_name=result.config_name,
                policy=policy,
                core="array",
                version=repro.__version__,
                status="ok" if result.success else "failed",
                ii=int(result.ii),
                mii=int(result.mii),
                spills=int(result.n_spill_memory_ops),
                scheduling_time_s=float(result.scheduling_time_s),
                digest=runs_digest([run]),
                job_id=job_id,
                tier=tier,
                seed=seed,
                created_at=stamp,
            )
        )
    return rows


_JOBS_COLUMNS = (
    "job_id", "job_key", "kind", "client", "params", "state",
    "submitted_at", "started_at", "finished_at", "n_done", "n_total",
    "error", "result", "runs_digest",
)

_RUNS_COLUMNS = (
    "run_key", "job_id", "loop_name", "config_name", "policy", "core",
    "version", "tier", "seed", "status", "ii", "mii", "spills",
    "scheduling_time_s", "digest", "created_at",
)

_PROBES_COLUMNS = (
    "probe_key", "explore_key", "config_name", "kind", "config", "tier",
    "n_loops", "seed", "area_mlambda2", "time_ns", "sum_ii", "n_failed",
    "created_at",
)


class RunDatabase:
    """One SQLite file of durable service state (jobs + run table).

    Example::

        db = RunDatabase("runs.sqlite")
        db.upsert_job({"job_id": "job-ab12...", "job_key": "ab12...",
                       "kind": "schedule", "client": "anonymous",
                       "params": "{}", "state": "queued",
                       "submitted_at": time.time()})
        db.update_job("job-ab12...", state="done", result="{...}")
        db.add_runs(rows_from_runs(runs, rf=rf, machine=machine,
                                   policy="mirs_hc"))
        rows = db.query_runs(configs=("4C16S16",))

    The connection is opened in WAL mode with a busy timeout so several
    processes can share the file; all in-process access goes through one
    lock (``sqlite3`` connections are not thread-safe and the service's
    HTTP layer is threaded).
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S,
    ) -> None:
        self.path = Path(path).expanduser()
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            str(self.path), timeout=busy_timeout_s, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self.busy_timeout_s = float(busy_timeout_s)
        with self._lock:
            # WAL lets a report reader and a serving writer share the
            # file; the busy timeout makes two writers queue instead of
            # erroring.  journal_mode returns the mode actually granted
            # (some filesystems cannot do WAL) -- recorded, not fatal.
            self.journal_mode = str(
                self._conn.execute("PRAGMA journal_mode=WAL").fetchone()[0]
            ).lower()
            self._conn.execute(
                f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}"
            )
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._create_tables()

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #
    def _create_tables(self) -> None:
        conn = self._conn
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'db_schema'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('db_schema', ?)",
                (str(DB_SCHEMA_VERSION),),
            )
        elif int(row[0]) > DB_SCHEMA_VERSION:
            raise ValueError(
                f"{self.path} was written by run-database schema {row[0]}; "
                f"this build understands <= {DB_SCHEMA_VERSION}"
            )
        conn.execute(
            """
            CREATE TABLE IF NOT EXISTS jobs (
                job_id       TEXT PRIMARY KEY,
                job_key      TEXT NOT NULL,
                kind         TEXT NOT NULL,
                client       TEXT NOT NULL DEFAULT 'anonymous',
                params       TEXT NOT NULL,
                state        TEXT NOT NULL,
                submitted_at REAL NOT NULL,
                started_at   REAL,
                finished_at  REAL,
                n_done       INTEGER NOT NULL DEFAULT 0,
                n_total      INTEGER NOT NULL DEFAULT 0,
                error        TEXT,
                result       TEXT,
                runs_digest  TEXT
            )
            """
        )
        conn.execute("CREATE INDEX IF NOT EXISTS jobs_by_key ON jobs(job_key)")
        conn.execute("CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs(state)")
        conn.execute(
            """
            CREATE TABLE IF NOT EXISTS runs (
                run_key           TEXT PRIMARY KEY,
                job_id            TEXT,
                loop_name         TEXT NOT NULL,
                config_name       TEXT NOT NULL,
                policy            TEXT NOT NULL,
                core              TEXT NOT NULL,
                version           TEXT NOT NULL,
                tier              TEXT,
                seed              INTEGER,
                status            TEXT NOT NULL,
                ii                INTEGER,
                mii               INTEGER,
                spills            INTEGER NOT NULL DEFAULT 0,
                scheduling_time_s REAL NOT NULL DEFAULT 0.0,
                digest            TEXT NOT NULL DEFAULT '',
                created_at        REAL NOT NULL
            )
            """
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS runs_by_config "
            "ON runs(config_name, policy)"
        )
        conn.execute("CREATE INDEX IF NOT EXISTS runs_by_time ON runs(created_at)")
        # Design-space exploration probes (PR 10).  Additive: older builds
        # simply ignore the table, so no db_schema bump is needed.
        conn.execute(
            """
            CREATE TABLE IF NOT EXISTS probes (
                probe_key     TEXT PRIMARY KEY,
                explore_key   TEXT NOT NULL,
                config_name   TEXT NOT NULL,
                kind          TEXT NOT NULL,
                config        TEXT NOT NULL,
                tier          TEXT,
                n_loops       INTEGER,
                seed          INTEGER,
                area_mlambda2 REAL NOT NULL,
                time_ns       REAL NOT NULL,
                sum_ii        INTEGER NOT NULL DEFAULT 0,
                n_failed      INTEGER NOT NULL DEFAULT 0,
                created_at    REAL NOT NULL
            )
            """
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS probes_by_explore ON probes(explore_key)"
        )
        conn.commit()

    # ------------------------------------------------------------------ #
    # Jobs table
    # ------------------------------------------------------------------ #
    def upsert_job(self, row: Dict[str, object]) -> None:
        """Insert (or fully replace) one job row; unknown keys rejected."""
        unknown = sorted(set(row) - set(_JOBS_COLUMNS))
        if unknown:
            raise ValueError(f"unknown jobs columns: {unknown}")
        columns = [column for column in _JOBS_COLUMNS if column in row]
        placeholders = ", ".join("?" for _ in columns)
        with self._lock:
            self._conn.execute(
                f"INSERT OR REPLACE INTO jobs ({', '.join(columns)}) "
                f"VALUES ({placeholders})",
                [row[column] for column in columns],
            )
            self._conn.commit()

    def update_job(self, job_id: str, **fields: object) -> None:
        """Update columns of one job row (no-op for unknown ids)."""
        unknown = sorted(set(fields) - set(_JOBS_COLUMNS))
        if unknown:
            raise ValueError(f"unknown jobs columns: {unknown}")
        if not fields:
            return
        assignments = ", ".join(f"{column} = ?" for column in fields)
        with self._lock:
            self._conn.execute(
                f"UPDATE jobs SET {assignments} WHERE job_id = ?",
                [*fields.values(), job_id],
            )
            self._conn.commit()

    def job(self, job_id: str) -> Optional[Dict[str, object]]:
        """One job row as a plain dict, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return None if row is None else dict(row)

    def job_by_key(self, job_key: str) -> Optional[Dict[str, object]]:
        """The most recently submitted job row with this content key."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE job_key = ? "
                "ORDER BY submitted_at DESC LIMIT 1",
                (job_key,),
            ).fetchone()
        return None if row is None else dict(row)

    def jobs(
        self, states: Optional[Sequence[str]] = None
    ) -> List[Dict[str, object]]:
        """Job rows (optionally filtered by state), in submission order."""
        query = "SELECT * FROM jobs"
        params: Tuple = ()
        if states:
            query += f" WHERE state IN ({', '.join('?' for _ in states)})"
            params = tuple(states)
        query += " ORDER BY submitted_at, job_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [dict(row) for row in rows]

    def pending_jobs(self) -> List[Dict[str, object]]:
        """Rows a restarted server must re-enqueue (queued or running)."""
        return self.jobs(states=("queued", "running"))

    # ------------------------------------------------------------------ #
    # Runs table
    # ------------------------------------------------------------------ #
    def add_runs(self, rows: Sequence[RunRow]) -> int:
        """Upsert run rows (idempotent on ``run_key``); returns the count."""
        payload = [
            (
                row.run_key, row.job_id, row.loop_name, row.config_name,
                row.policy, row.core, row.version, row.tier, row.seed,
                row.status, row.ii, row.mii, row.spills,
                row.scheduling_time_s, row.digest, row.created_at,
            )
            for row in rows
        ]
        if not payload:
            return 0
        with self._lock:
            self._conn.executemany(
                f"INSERT OR REPLACE INTO runs ({', '.join(_RUNS_COLUMNS)}) "
                f"VALUES ({', '.join('?' for _ in _RUNS_COLUMNS)})",
                payload,
            )
            self._conn.commit()
        return len(payload)

    def query_runs(
        self,
        *,
        configs: Sequence[str] = (),
        policies: Sequence[str] = (),
        tiers: Sequence[str] = (),
        loop: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[RunRow]:
        """Run rows matching every given filter, oldest first.

        ``loop`` is a substring match on the loop name; the sequence
        filters are exact-match OR-sets; ``since``/``until`` bound
        ``created_at`` (inclusive / exclusive).
        """
        clauses: List[str] = []
        params: List[object] = []
        for column, values in (
            ("config_name", configs), ("policy", policies), ("tier", tiers)
        ):
            if values:
                clauses.append(
                    f"{column} IN ({', '.join('?' for _ in values)})"
                )
                params.extend(values)
        if loop:
            clauses.append("loop_name LIKE ?")
            params.append(f"%{loop}%")
        if since is not None:
            clauses.append("created_at >= ?")
            params.append(float(since))
        if until is not None:
            clauses.append("created_at < ?")
            params.append(float(until))
        query = "SELECT * FROM runs"
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY created_at, run_key"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [
            RunRow(**{key: row[key] for key in _RUNS_COLUMNS}) for row in rows
        ]

    # ------------------------------------------------------------------ #
    # Probes table (design-space exploration)
    # ------------------------------------------------------------------ #
    def add_probe(self, row: Dict[str, object]) -> None:
        """Upsert one exploration probe (idempotent on ``probe_key``)."""
        unknown = sorted(set(row) - set(_PROBES_COLUMNS))
        if unknown:
            raise ValueError(f"unknown probes columns: {unknown}")
        columns = [column for column in _PROBES_COLUMNS if column in row]
        with self._lock:
            self._conn.execute(
                f"INSERT OR REPLACE INTO probes ({', '.join(columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})",
                [row[column] for column in columns],
            )
            self._conn.commit()

    def probe(self, probe_key: str) -> Optional[Dict[str, object]]:
        """One probe row by content key, or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM probes WHERE probe_key = ?", (probe_key,)
            ).fetchone()
        return dict(row) if row is not None else None

    def probes(self, explore_key: Optional[str] = None) -> List[Dict[str, object]]:
        """Probe rows (optionally for one exploration), oldest first."""
        query = "SELECT * FROM probes"
        params: List[object] = []
        if explore_key is not None:
            query += " WHERE explore_key = ?"
            params.append(explore_key)
        query += " ORDER BY created_at, probe_key"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Row counts and journal mode (health endpoint / logging)."""
        with self._lock:
            n_jobs = self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]
            n_runs = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
            n_probes = self._conn.execute(
                "SELECT COUNT(*) FROM probes"
            ).fetchone()[0]
            by_state = dict(
                self._conn.execute(
                    "SELECT state, COUNT(*) FROM jobs GROUP BY state"
                ).fetchall()
            )
        return {
            "path": str(self.path),
            "journal_mode": self.journal_mode,
            "n_jobs": int(n_jobs),
            "n_runs": int(n_runs),
            "n_probes": int(n_probes),
            "jobs_by_state": {state: int(n) for state, n in by_state.items()},
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def loads_job_params(row: Dict[str, object]) -> Dict[str, object]:
    """The validated request dict stored in a job row's ``params``."""
    payload = json.loads(str(row["params"]))
    if not isinstance(payload, dict):  # pragma: no cover - defensive
        raise ValueError(f"job {row.get('job_id')} has a corrupt params column")
    return payload
