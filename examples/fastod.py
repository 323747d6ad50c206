#!/usr/bin/env python3
"""In-process Python bindings for the fastod order-dependency library.

A single-file ctypes wrapper over the stable C ABI (src/capi/fastod_c.h)
— no build step, no third-party dependencies. Point FASTOD_LIB at
libfastod_c.so (or run from a build tree, which is searched by default)
and discover:

    import fastod

    with fastod.Session("fastod") as session:
        session.set_option("threads", "2")
        session.load_csv("flight.csv")
        report = session.execute()          # parsed JSON report
        print(report["stats"])

Load-once, discover-many: a Dataset is parsed, typed, encoded, and
partition-seeded once, then any number of sessions bind it by reference
(including concurrently):

    with fastod.Dataset("flight.csv") as dataset:
        for algorithm in ("fastod", "tane"):
            with fastod.Session(algorithm) as session:
                session.use_dataset(dataset)
                print(algorithm, session.execute()["stats"])

Run as a script, this file is a self-checking smoke test (used by ctest
and CI): it generates a small CSV, runs it through csv-bound and
dataset-bound sessions across two algorithms, and verifies the dataset
path reproduces the csv path bit-for-bit.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import json
import os
import random
import sys
import tempfile
import time

# ---------------------------------------------------------------------------
# Library loading
# ---------------------------------------------------------------------------

_SEARCH_PATHS = (
    os.environ.get("FASTOD_LIB"),
    "libfastod_c.so",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "build",
                 "libfastod_c.so"),
    "build/libfastod_c.so",
    ctypes.util.find_library("fastod_c"),
)


def _load_library() -> ctypes.CDLL:
    errors = []
    for candidate in _SEARCH_PATHS:
        if not candidate:
            continue
        try:
            return ctypes.CDLL(candidate)
        except OSError as error:
            errors.append(f"{candidate}: {error}")
    raise OSError(
        "cannot load libfastod_c.so; set FASTOD_LIB to its path. Tried:\n  "
        + "\n  ".join(errors))


_lib = _load_library()

# Mirrors of the FASTOD_* macros (frozen ABI constants).
OK = 0
ERR_INVALID_ARGUMENT, ERR_NOT_FOUND, ERR_OUT_OF_RANGE = 1, 2, 3
ERR_FAILED_PRECONDITION, ERR_IO, ERR_RESOURCE_EXHAUSTED = 4, 5, 6
ERR_NULL_HANDLE, ERR_INTERNAL = 7, 8
ERR_DEADLINE, ERR_UNAVAILABLE = 9, 10
STATE_CREATED, STATE_QUEUED, STATE_RUNNING = 0, 1, 2
STATE_DONE, STATE_FAILED, STATE_CANCELLED = 3, 4, 5
_TERMINAL_STATES = (STATE_DONE, STATE_FAILED, STATE_CANCELLED)
_OPTION_KINDS = {0: "bool", 1: "int", 2: "double", 3: "string", 4: "enum"}


def _sig(name, restype, argtypes):
    fn = getattr(_lib, name)
    fn.restype = restype
    fn.argtypes = argtypes
    return fn


_c = ctypes.c_char_p
_p = ctypes.c_void_p
_version = _sig("fastod_version_string", _c, [])
_algorithm_count = _sig("fastod_algorithm_count", ctypes.c_int, [])
_algorithm_name = _sig("fastod_algorithm_name", _c, [ctypes.c_int])
_algorithm_description = _sig("fastod_algorithm_description", _c, [_c])
_create = _sig("fastod_create", _p, [_c])
_destroy = _sig("fastod_destroy", None, [_p])
_set_option = _sig("fastod_set_option", ctypes.c_int, [_p, _c, _c])
_option_count = _sig("fastod_option_count", ctypes.c_int, [_p])
_option_name = _sig("fastod_option_name", _c, [_p, ctypes.c_int])
_option_kind = _sig("fastod_option_kind", ctypes.c_int, [_p, ctypes.c_int])
_option_default = _sig("fastod_option_default", _c, [_p, ctypes.c_int])
_option_description = _sig("fastod_option_description", _c,
                           [_p, ctypes.c_int])
_load_csv_opts = _sig(
    "fastod_load_csv_opts", ctypes.c_int,
    [_p, _c, ctypes.c_char, ctypes.c_int, ctypes.c_long])
_execute = _sig("fastod_execute", ctypes.c_int, [_p])
_execute_async = _sig("fastod_execute_async", ctypes.c_int, [_p])
_poll = _sig("fastod_poll", ctypes.c_int,
             [_p, ctypes.POINTER(ctypes.c_double)])
_wait = _sig("fastod_wait", ctypes.c_int, [_p])
_cancel = _sig("fastod_cancel", ctypes.c_int, [_p])
_result_json = _sig("fastod_result_json", _c, [_p])
_result_text = _sig("fastod_result_text", _c, [_p])
_trace_json = _sig("fastod_session_trace_json", _c, [_p])
_last_error = _sig("fastod_last_error", _c, [_p])
_dataset_load_csv_opts = _sig(
    "fastod_dataset_load_csv_opts", _p,
    [_c, ctypes.c_char, ctypes.c_int, ctypes.c_long])
_dataset_rows = _sig("fastod_dataset_rows", ctypes.c_long, [_p])
_dataset_columns = _sig("fastod_dataset_columns", ctypes.c_int, [_p])
_dataset_append_rows = _sig("fastod_dataset_append_rows", _p, [_p, _c])
_dataset_version = _sig("fastod_dataset_version", ctypes.c_long, [_p])
_dataset_base_rows = _sig("fastod_dataset_base_rows", ctypes.c_long, [_p])
_use_dataset = _sig("fastod_use_dataset", ctypes.c_int, [_p, _p])
_dataset_destroy = _sig("fastod_dataset_destroy", None, [_p])


def _decode(value: bytes | None) -> str | None:
    return None if value is None else value.decode("utf-8")


class FastodError(RuntimeError):
    """A coded failure from the library (FASTOD_ERR_* in fastod_c.h)."""

    def __init__(self, code: int, message: str):
        super().__init__(f"fastod error {code}: {message}")
        self.code = code
        self.message = message


class FastodUnavailable(FastodError):
    """Transient overload or shutdown (FASTOD_ERR_UNAVAILABLE): the
    operation was refused, not failed — retry after a backoff."""

    def __init__(self, message: str):
        super().__init__(ERR_UNAVAILABLE, message)


def _raise(code: int, message: str):
    if code == ERR_UNAVAILABLE:
        raise FastodUnavailable(message)
    raise FastodError(code, message)


def retry_unavailable(call, *, attempts: int = 5, base_delay: float = 0.1,
                      max_delay: float = 2.0, sleep=time.sleep,
                      rng=random.random):
    """Runs `call()` with capped exponential backoff + full jitter on
    FastodUnavailable; re-raises it once `attempts` are exhausted. Any
    other error propagates immediately."""
    for attempt in range(attempts):
        try:
            return call()
        except FastodUnavailable:
            if attempt + 1 == attempts:
                raise
            delay = min(max_delay, base_delay * (2 ** attempt))
            sleep(delay * rng())
    raise AssertionError("unreachable")


def version() -> str:
    """The library's "MAJOR.MINOR.PATCH" version string."""
    return _decode(_version())


def algorithms() -> dict[str, str]:
    """Registered algorithm names mapped to their one-line descriptions."""
    out = {}
    for index in range(_algorithm_count()):
        name = _decode(_algorithm_name(index))
        out[name] = _decode(_algorithm_description(name.encode()))
    return out


class Dataset:
    """One CSV loaded once (parse + encode + level-1 partitions) for
    reuse across any number of Sessions. Closing the dataset is safe
    while sessions still use it — they keep the data alive."""

    def __init__(self, path: str, *, delimiter: str = ",",
                 has_header: bool = True, max_rows: int = -1):
        handle = _dataset_load_csv_opts(
            os.fspath(path).encode(), delimiter.encode(),
            1 if has_header else 0, max_rows)
        if not handle:
            raise FastodError(ERR_IO, _decode(_last_error(None)) or
                              f"failed to load {path!r}")
        self._handle = handle

    @property
    def rows(self) -> int:
        self._check_open()
        return _dataset_rows(self._handle)

    @property
    def columns(self) -> int:
        self._check_open()
        return _dataset_columns(self._handle)

    @property
    def version(self) -> int:
        """1 for a fresh load; parent version + 1 after append_rows."""
        self._check_open()
        return _dataset_version(self._handle)

    @property
    def base_rows(self) -> int:
        """Rows inherited from the parent version (== rows for v1)."""
        self._check_open()
        return _dataset_base_rows(self._handle)

    def append_rows(self, csv_text: str) -> "Dataset":
        """Appends headerless delta rows (same column count, no header
        line) and returns the grown relation as a NEW independent
        Dataset; this version is immutable and stays usable."""
        self._check_open()
        handle = _dataset_append_rows(self._handle, csv_text.encode())
        if not handle:
            raise FastodError(ERR_INVALID_ARGUMENT,
                              _decode(_last_error(None)) or "append failed")
        grown = Dataset.__new__(Dataset)
        grown._handle = handle
        return grown

    def close(self) -> None:
        if self._handle:
            _dataset_destroy(self._handle)
            self._handle = None

    def _check_open(self) -> None:
        if not self._handle:
            raise FastodError(ERR_NULL_HANDLE, "dataset is closed")

    def __enter__(self) -> "Dataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; prefer close()/with
        try:
            self.close()
        except Exception:
            pass


class Session:
    """One discovery session over a named algorithm."""

    def __init__(self, algorithm: str = "fastod"):
        handle = _create(algorithm.encode())
        if not handle:
            raise FastodError(ERR_NOT_FOUND, _decode(_last_error(None)) or
                              f"unknown algorithm {algorithm!r}")
        self._handle = handle
        self.algorithm = algorithm

    # -- configuration ----------------------------------------------------
    def set_option(self, name: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self._check(_set_option(self._handle, name.encode(),
                                str(value).encode()))

    def options(self) -> list[dict]:
        """Metadata for every option this algorithm accepts."""
        out = []
        for index in range(_option_count(self._handle)):
            out.append({
                "name": _decode(_option_name(self._handle, index)),
                "kind": _OPTION_KINDS.get(_option_kind(self._handle, index)),
                "default": _decode(_option_default(self._handle, index)),
                "description": _decode(
                    _option_description(self._handle, index)),
            })
        return out

    # -- data -------------------------------------------------------------
    def load_csv(self, path: str, *, delimiter: str = ",",
                 has_header: bool = True, max_rows: int = -1) -> None:
        self._check(_load_csv_opts(
            self._handle, os.fspath(path).encode(), delimiter.encode(),
            1 if has_header else 0, max_rows))

    def use_dataset(self, dataset: Dataset) -> None:
        dataset._check_open()
        self._check(_use_dataset(self._handle, dataset._handle))

    # -- execution --------------------------------------------------------
    def execute(self) -> dict:
        """Runs discovery synchronously and returns the parsed report."""
        self._check(_execute(self._handle))
        return self.result()

    def execute_async(self) -> None:
        self._check(_execute_async(self._handle))

    def poll(self) -> tuple[int, float]:
        """(STATE_*, progress in [0, 1]) of an asynchronous run."""
        progress = ctypes.c_double(0.0)
        state = _poll(self._handle, ctypes.byref(progress))
        if state < 0:
            raise FastodError(-state, "session is closed")
        return state, progress.value

    def wait(self) -> int:
        """Blocks until terminal; returns the final STATE_*."""
        state = _wait(self._handle)
        if state < 0:
            raise FastodError(-state, "session is closed")
        if state == STATE_FAILED:
            raise FastodError(ERR_INTERNAL, self.last_error() or "session failed")
        return state

    def cancel(self) -> None:
        self._check(_cancel(self._handle))

    # -- results ----------------------------------------------------------
    def result(self) -> dict:
        """The report of a DONE/CANCELLED session, parsed from JSON."""
        raw = self.result_json()
        if raw is None:
            raise FastodError(ERR_FAILED_PRECONDITION,
                              "no result (session not terminal?)")
        return json.loads(raw)

    def result_json(self) -> str | None:
        return _decode(_result_json(self._handle))

    def stream(self):
        """Yields the finished session's report as typed events, the
        way the server's NDJSON /stream frames them: revocations first
        (``{"type": "revoked", "od_type": ..., ...}`` — emitted by the
        incremental engine for prior ODs the grown data broke), then
        each discovered OD as ``{"type": "constancy" | "compatibility"
        | "bidirectional", ...}``."""
        report = self.result()
        for od_type in ("constancy", "compatibility"):
            for od in report.get(f"revoked_{od_type}_ods") or []:
                yield {"type": "revoked", "od_type": od_type, **od}
        for od_type in ("constancy", "compatibility", "bidirectional"):
            for od in report.get(f"{od_type}_ods") or []:
                yield {"type": od_type, **od}

    def result_text(self) -> str | None:
        return _decode(_result_text(self._handle))

    def trace(self) -> dict:
        """The session's observability trace, parsed from JSON.

        Readable in any state: ``{"spans": [...], "engine": {...}}``
        with phase timings (csv.read, csv.tokenize, encode,
        partitions.level1, execute, level[k]) and
        the engine's lattice-search counters once the run finished.
        Empty spans and a null engine when FASTOD_METRICS=off.
        """
        raw = _decode(_trace_json(self._handle))
        if raw is None:
            raise FastodError(ERR_NULL_HANDLE, "session is closed")
        return json.loads(raw)

    def last_error(self) -> str:
        return _decode(_last_error(self._handle))

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        if self._handle:
            _destroy(self._handle)
            self._handle = None

    def _check(self, code: int) -> None:
        if code != OK:
            _raise(code, self.last_error())

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# Self-checking smoke test (ctest + CI entry point)
# ---------------------------------------------------------------------------

_SMOKE_CSV = """month,quarter,salary,rank
1,1,100,9
2,1,200,8
4,2,300,7
5,2,400,6
7,3,500,5
8,3,600,4
"""


def _mask_seconds(report: dict) -> dict:
    report = dict(report)
    if isinstance(report.get("stats"), dict):
        report["stats"] = {k: v for k, v in report["stats"].items()
                           if k != "seconds"}
    return report


def _smoke(csv_path: str) -> int:
    print(f"fastod.py smoke test — library {version()}")
    names = algorithms()
    assert "fastod" in names and "tane" in names, names
    print(f"  {len(names)} algorithms registered")

    # Option metadata is reachable and typed.
    with Session("fastod") as session:
        kinds = {o["name"]: o["kind"] for o in session.options()}
        assert kinds.get("threads") == "int", kinds
        # Errors are real exceptions with the engine's message.
        try:
            session.set_option("threads", "zero")
            raise AssertionError("bad option value must raise")
        except FastodError as error:
            assert "threads" in error.message, error

    # Per-session CSV loads: the reference results.
    reference = {}
    for algorithm in ("fastod", "tane"):
        with Session(algorithm) as session:
            session.load_csv(csv_path)
            reference[algorithm] = _mask_seconds(session.execute())
            trace = session.trace()
            assert set(trace) == {"spans", "engine"}, trace
            if trace["engine"] is not None:  # FASTOD_METRICS may be off
                assert trace["engine"]["nodes_visited"] > 0, trace
                names = [span["name"] for span in trace["spans"]]
                assert "execute" in names, names
        print(f"  {algorithm}: csv-bound session done (trace: "
              f"{len(trace['spans'])} spans)")

    # Load once, discover many: the dataset path must reproduce the
    # csv path exactly, and survives closing the handle early.
    with Dataset(csv_path) as dataset:
        assert dataset.rows == 6 and dataset.columns == 4, \
            (dataset.rows, dataset.columns)
        sessions = []
        for algorithm in ("fastod", "tane"):
            session = Session(algorithm)
            session.use_dataset(dataset)
            sessions.append(session)
    # The dataset handle is closed; bound sessions still run.
    for session in sessions:
        session.execute_async()
    for session in sessions:
        assert session.wait() == STATE_DONE
        report = _mask_seconds(session.result())
        assert report == reference[session.algorithm], (
            f"{session.algorithm}: dataset-bound result diverged")
        print(f"  {session.algorithm}: dataset-bound session matches")
        session.close()

    # Versioned datasets: appending mints a new immutable version, and
    # the incremental engine re-validates the prior report against it —
    # revoking broken ODs and matching a fresh full run exactly.
    with Dataset(csv_path) as v1:
        assert v1.version == 1 and v1.base_rows == v1.rows, \
            (v1.version, v1.base_rows)
        with Session("fastod") as session:
            session.use_dataset(v1)
            prior = session.execute()
        # month 9 lands in quarter 1: the month ~ quarter order breaks.
        v2 = v1.append_rows("9,1,700,3\n")
        assert v1.rows == 6, "append must not grow the parent version"
    with v2:
        assert (v2.version, v2.rows, v2.base_rows) == (2, 7, 6), \
            (v2.version, v2.rows, v2.base_rows)
        with Session("incremental") as session:
            session.set_option("prior", json.dumps(prior))
            session.use_dataset(v2)
            incremental = session.execute()
            events = list(session.stream())
        with Session("fastod") as session:
            session.use_dataset(v2)
            fresh = session.execute()
    revoked = [e for e in events if e["type"] == "revoked"]
    assert revoked, "the appended row must revoke at least one prior OD"
    assert all(e["od_type"] in ("constancy", "compatibility")
               for e in revoked), revoked
    assert len(events) - len(revoked) == (
        len(incremental["constancy_ods"])
        + len(incremental["compatibility_ods"])), events

    def od_set(report: dict, key: str) -> list[str]:
        return sorted(json.dumps(od, sort_keys=True)
                      for od in report.get(key, []))

    for key in ("constancy_ods", "compatibility_ods"):
        assert od_set(incremental, key) == od_set(fresh, key), \
            f"incremental diverged from the full re-run on {key}"
    print(f"  incremental: {len(revoked)} revocation(s) streamed, "
          "surviving + new ODs match the full re-run")

    # Retry helper: passthrough on success, capped backoff on
    # FastodUnavailable, typed give-up after N attempts (no real sleeps).
    naps = []
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise FastodUnavailable("at capacity")
        return "ok"

    assert retry_unavailable(flaky, sleep=naps.append,
                             rng=lambda: 1.0) == "ok"
    assert calls["n"] == 3 and naps == [0.1, 0.2], (calls, naps)
    try:
        retry_unavailable(lambda: (_ for _ in ()).throw(
            FastodUnavailable("down")), attempts=2, sleep=naps.append)
        raise AssertionError("exhausted retries must re-raise")
    except FastodUnavailable as error:
        assert error.code == ERR_UNAVAILABLE, error
    print("  retry_unavailable: backoff + typed give-up verified")

    # A 1 ms hard deadline on the tiny table may or may not trip — but
    # when it does, it must surface as the dedicated deadline code.
    with Session("fastod") as session:
        session.load_csv(csv_path)
        session.set_option("timeout-ms", "1")
        try:
            session.execute()
        except FastodError as error:
            assert error.code == ERR_DEADLINE, error
            print("  timeout-ms: deadline surfaced as ERR_DEADLINE")

    print("fastod.py smoke test passed")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        return _smoke(argv[1])
    with tempfile.NamedTemporaryFile(
            "w", suffix=".csv", delete=False) as handle:
        handle.write(_SMOKE_CSV)
        path = handle.name
    try:
        return _smoke(path)
    finally:
        os.unlink(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
