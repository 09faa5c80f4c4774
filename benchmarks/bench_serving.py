"""Load-test the streaming server edge: ``repro serve`` under concurrency.

Starts an in-process :class:`~repro.serve.app.QueryServer` on a loopback
socket and fires a fleet of stdlib-asyncio clients at it — all at once, no
ramp-up.  The fleet mixes *fast* readers (drain the socket as fast as the
loop allows) with *slow* readers (small reads with sleeps in between, so
their channels cross the backpressure high-water mark), plus two probe
groups: quota probes that share one client identity to draw real 429s, and
timeout probes whose ``timeout_vtime`` is far below the query's cost so
the admission guard cancels them through the scheduler.

Measured, per admitted client, on the wall clock from request send:

* **TTFR** — time to the first ``result`` frame (the paper's progressive
  contract at the network edge), and
* **completion** — time to the terminal ``complete`` frame,

reported as p50/p95/p99 for the fast and slow cohorts separately, plus
admission counters (rejections, retries, timeouts).  Every fast client's
streamed values are compared against a direct ``Session.execute`` of the
same query — the zero-interference check: no concurrency level, slow
reader, or rejected probe may change anyone's result sequence.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full: 256 clients
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke    # tiny CI scale
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.data.workloads import SyntheticWorkload  # noqa: E402
from repro.serve import AdmissionPolicy, QueryServer, Watermarks  # noqa: E402
from repro.session.service import Session  # noqa: E402

SEED = 20100301

SQL = (
    "SELECT R.id, T.id, (R.a0 + T.b0) AS x0, (R.a1 + T.b1) AS x1 "
    "FROM R R, T T WHERE R.jkey = T.jkey "
    "PREFERRING LOWEST(x0) AND LOWEST(x1)"
)

#: Engine variants rotated across the fleet.
VARIANTS = (
    {"partitioning": "grid"},
    {"partitioning": "quadtree"},
)

DEFAULT_OUT = REPO_ROOT / "BENCH_serving.json"

#: Slow readers: bytes per read / sleep between reads.
SLOW_CHUNK = 256
SLOW_DELAY = 0.004


def make_session(n: int) -> Session:
    session = Session()
    session.register_tables(
        SyntheticWorkload(n=n, d=2, sigma=0.05, seed=SEED % 1000).tables()
    )
    return session


def expected_values(session: Session, variant: dict) -> list[dict]:
    """Ground truth for the interference check: a direct solo execute."""
    from repro.session.config import EngineConfig

    config = EngineConfig().with_options(**variant)
    return [r.outputs for r in session.execute(SQL, config=config)]


# ----------------------------------------------------------------------
# stdlib asyncio client
# ----------------------------------------------------------------------
def _http_post(path: str, body: bytes) -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


async def _open_and_send(server, body: bytes):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(_http_post("/query", body))
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return reader, writer, status


async def run_client(
    server, *, body: dict, slow: bool = False, max_retries: int = 1_000
) -> dict:
    """One client: submit, retry on 429, stream to the terminal frame.

    Returns a record with wall-clock ``ttfr`` / ``completion`` (relative
    to the *first* send, so retry waits count against the client), the
    decoded frames, the number of 429 retries, and the reader cohort.
    """
    payload = json.dumps(body).encode()
    t0 = time.perf_counter()
    retries = 0
    while True:
        reader, writer, status = await _open_and_send(server, payload)
        if status != 429:
            break
        writer.close()
        await writer.wait_closed()
        retries += 1
        if retries > max_retries:
            return {"status": status, "retries": retries, "frames": []}
        # Back off briefly — the server's Retry-After is sized for humans;
        # the bench polls faster to measure queueing delay, not politeness.
        await asyncio.sleep(0.01 + 0.002 * (retries % 7))

    frames, buffer = [], b""
    ttfr = None
    while True:
        chunk = await reader.read(SLOW_CHUNK if slow else 65536)
        if not chunk:
            break
        if slow:
            await asyncio.sleep(SLOW_DELAY)
        buffer += chunk
        while b"\n" in buffer:
            line, _, buffer = buffer.partition(b"\n")
            if not line.strip():
                continue
            frame = json.loads(line)
            frames.append(frame)
            if ttfr is None and frame["event"] == "result":
                ttfr = time.perf_counter() - t0
    writer.close()
    await writer.wait_closed()
    return {
        "status": status,
        "retries": retries,
        "frames": frames,
        "ttfr": ttfr,
        "completion": time.perf_counter() - t0,
        "slow": slow,
    }


def terminal(record: dict) -> dict | None:
    frames = record.get("frames") or []
    return frames[-1] if frames and frames[-1]["event"] == "complete" else None


def values_of(record: dict) -> list[dict]:
    return [f["values"] for f in record["frames"] if f["event"] == "result"]


# ----------------------------------------------------------------------
# the fleet
# ----------------------------------------------------------------------
async def run_fleet(args) -> dict:
    session = make_session(args.n)
    expected = [expected_values(session, v) for v in VARIANTS]

    policy = AdmissionPolicy(
        max_active=args.max_active,
        max_per_client=args.max_per_client,
        retry_after_seconds=0.05,
    )
    server = QueryServer(
        session,
        port=0,
        admission=policy,
        watermarks=Watermarks(high=2048, low=512),
    )
    await server.start()
    try:
        tasks = []
        n_slow = int(args.clients * args.slow_fraction)
        for i in range(args.clients):
            variant = i % len(VARIANTS)
            body = {
                "sql": SQL,
                "client": f"bench-{i}",
                "config": VARIANTS[variant],
                "name": f"bench-{i}",
            }
            record = run_client(server, body=body, slow=i < n_slow)
            tasks.append((variant, asyncio.ensure_future(record)))

        # Quota probes: one shared identity, more submissions than the
        # per-client quota allows, no retries — these draw real 429s.
        probes = [
            asyncio.ensure_future(
                run_client(
                    server,
                    body={"sql": SQL, "client": "quota-hog"},
                    max_retries=0,
                )
            )
            for _ in range(args.quota_probes)
        ]
        # Timeout probes: a vtime allowance far below the query's cost, so
        # the deadline guard cancels them through the scheduler.
        timeouts = [
            asyncio.ensure_future(
                run_client(
                    server,
                    body={
                        "sql": SQL,
                        "client": f"deadline-{i}",
                        "timeout_vtime": 10.0,
                    },
                )
            )
            for i in range(args.timeout_probes)
        ]

        wall0 = time.perf_counter()
        records = [(v, await task) for v, task in tasks]
        probe_records = [await p for p in probes]
        timeout_records = [await t for t in timeouts]
        fleet_wall = time.perf_counter() - wall0
        stats = server.stats()
    finally:
        await server.stop(timeout=30.0)

    # --- verify: completion, zero interference, probe outcomes ---------
    mismatches = 0
    for variant, record in records:
        final = terminal(record)
        assert final is not None, "client ended without a complete frame"
        assert final["state"] == "completed", final
        seqs = [f["seq"] for f in record["frames"]]
        assert seqs == list(range(len(seqs))), "sequence gap in stream"
        if values_of(record) != expected[variant]:
            mismatches += 1
    assert mismatches == 0, f"{mismatches} clients saw interfered results"

    quota_rejected = sum(
        1 for r in probe_records if r["status"] == 429 and r["retries"] > 0
    )
    assert quota_rejected > 0, "quota probes never drew a 429"
    timed_out = sum(
        1
        for r in timeout_records
        if (final := terminal(r)) is not None
        and final["state"] == "cancelled"
        and str(final["stop_reason"]).startswith("admission timeout")
    )
    assert timed_out == len(timeout_records), (
        f"only {timed_out}/{len(timeout_records)} timeout probes were "
        "cancelled by the deadline guard"
    )

    def cohort(slow: bool) -> dict:
        recs = [r for _, r in records if r["slow"] is slow]
        return {
            "clients": len(recs),
            "ttfr": percentiles([r["ttfr"] for r in recs if r["ttfr"]]),
            "completion": percentiles([r["completion"] for r in recs]),
        }

    return {
        "clients": args.clients,
        "slow_clients": n_slow,
        "rows_per_table": args.n,
        "max_active": args.max_active,
        "max_per_client": args.max_per_client,
        "results_per_query": [len(e) for e in expected],
        "fleet_wall_seconds": round(fleet_wall, 3),
        "fast": cohort(slow=False),
        "slow": cohort(slow=True),
        "admission_retries_total": sum(r["retries"] for _, r in records),
        "quota_probes": {
            "sent": len(probe_records),
            "rejected": quota_rejected,
        },
        "timeout_probes": {
            "sent": len(timeout_records),
            "timed_out": timed_out,
        },
        "server": {
            "admission": stats["admission"],
            "timed_out_total": stats["timed_out_total"],
            "backpressure_pauses_total": (
                stats["backpressure"]["pauses_total"]
            ),
        },
        "interference_free": True,  # asserted above
    }


def percentiles(samples: list[float]) -> dict | None:
    if not samples:
        return None
    ordered = sorted(samples)

    def pct(q: float) -> float:
        index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
        return round(ordered[int(index)], 4)

    return {
        "p50": pct(0.50),
        "p95": pct(0.95),
        "p99": pct(0.99),
        "mean": round(statistics.mean(ordered), 4),
        "max": round(ordered[-1], 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, default=256,
        help="concurrent streaming clients (default: 256)",
    )
    parser.add_argument(
        "--slow-fraction", type=float, default=0.25,
        help="fraction of clients reading slowly (default: 0.25)",
    )
    parser.add_argument("-n", type=int, default=120, help="rows per table")
    parser.add_argument(
        "--max-active", type=int, default=64,
        help="admission ceiling; excess clients retry on 429 (default: 64)",
    )
    parser.add_argument(
        "--max-per-client", type=int, default=4,
        help="per-client quota, drawn on by the quota probes (default: 4)",
    )
    parser.add_argument(
        "--quota-probes", type=int, default=12,
        help="simultaneous submissions sharing one client id (default: 12)",
    )
    parser.add_argument(
        "--timeout-probes", type=int, default=8,
        help="clients with a vtime deadline far below the query cost",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny CI scale: 16 clients, no JSON written unless --out is "
        "given explicitly",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.clients = min(args.clients, 16)
        args.max_active = min(args.max_active, 8)
        args.quota_probes = min(args.quota_probes, 4)
        args.timeout_probes = min(args.timeout_probes, 2)

    print(
        f"bench_serving: {args.clients} concurrent clients "
        f"({args.slow_fraction:.0%} slow readers), "
        f"max_active={args.max_active}"
    )
    entry = asyncio.run(run_fleet(args))
    for cohort in ("fast", "slow"):
        pcts = entry[cohort]["ttfr"]
        done = entry[cohort]["completion"]
        print(
            f"  {cohort:<5} x{entry[cohort]['clients']:>4}  "
            f"ttfr p50/p95/p99 {pcts['p50']}/{pcts['p95']}/{pcts['p99']}s  "
            f"completion p50/p99 {done['p50']}/{done['p99']}s"
        )
    print(
        f"  429 retries {entry['admission_retries_total']}, quota rejections "
        f"{entry['quota_probes']['rejected']}/{entry['quota_probes']['sent']}, "
        f"timed out {entry['timeout_probes']['timed_out']}"
        f"/{entry['timeout_probes']['sent']}, interference-free: "
        f"{entry['interference_free']}"
    )

    out_path = args.out or (None if args.smoke else DEFAULT_OUT)
    if out_path is not None:
        payload = {
            "benchmark": "streaming server edge under concurrent load",
            "command": "PYTHONPATH=src python benchmarks/bench_serving.py",
            "metric": (
                "wall-clock time-to-first-result and completion per "
                "streaming client, fast vs slow readers"
            ),
            "seed": SEED,
            "python": sys.version.split()[0],
            "entries": [entry],
        }
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"  wrote {out_path}")
    else:
        print("  smoke OK: all streams completed, zero interference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
