#!/usr/bin/env python3
"""End-to-end gate for edit-incremental re-analysis.

Replays the edit corpus (tests/corpus/edits) through both incremental
surfaces and checks the contract:

 1. `omega-analyze --result-cache-file`: a result store fed by base.tiny
    is consulted by a run of every edited program, at --jobs 1 and 4,
    cold and warm; the response's "result" section must be byte-identical
    to a from-scratch `omega-analyze --json` run of the same program, and
    the run must reuse stored pairs.
 2. A live omega-serve session: the base program then every edit are
    submitted with the same "session" id; each response must be
    byte-identical to the from-scratch run, validate against the JSON
    schema, report pair reuse after the base request, and account for
    every pair group (pairsReused + pairsResolved + pairsNew == groups).
    The daemon persists its store with --result-cache-file; a restarted
    daemon replays an edit in a fresh session with nothing re-solved.
 3. Store-file robustness: a truncated and a bit-flipped store file must
    degrade to a cold, from-scratch run (same bytes out), never to an
    error or a different result.

Usage:
    incremental_check.py --serve build/tools/omega-serve \
                         --analyze build/tools/omega-analyze \
                         [--edits tests/corpus/edits]

Exit status 0 on success, 1 on any violation.
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_schema import SCHEMA_PATH, Validator  # noqa: E402
from server_smoke import result_bytes  # noqa: E402

EDITS = ["rename", "bound", "stmt-new", "stmt-edit", "loop-del",
         "interchange", "rename-reorder"]


def run_analyze(analyze, path, extra=()):
    """One omega-analyze --json run; returns (stdout, stderr)."""
    proc = subprocess.run(
        [analyze, "--json", *extra, path],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout, proc.stderr


def store_stats(out):
    stats = json.loads(out)["metrics"]["stats"]
    return stats["resultStoreHits"], stats["resultStoreMisses"]


def group_total(serve, path):
    """The program's pair-group count: the first request of a session on
    a fresh daemon (cold store) classifies every group "new"."""
    req = {"id": 1, "session": "count", "source": open(path).read()}
    proc = subprocess.run([serve], input=json.dumps(req) + "\n",
                          capture_output=True, text=True, check=True)
    delta = json.loads(proc.stdout.splitlines()[0])["metrics"]["delta"]
    if delta["pairsReused"] or delta["pairsResolved"]:
        return -1
    return delta["pairsNew"]


def check_accounting(tag, doc, total, failures):
    """pairsReused + pairsResolved + pairsNew must equal the program's
    access-pair group count."""
    delta = doc["metrics"].get("delta")
    if delta is None:
        print(f"{tag}: no metrics.delta in session response")
        return failures + 1
    got = delta["pairsReused"] + delta["pairsResolved"] + delta["pairsNew"]
    if got != total:
        print(f"{tag}: delta accounts for {got} pairs, program has {total}")
        return failures + 1
    return failures


class Daemon:
    """An omega-serve on a Unix socket, one connection, blocking asks."""

    def __init__(self, serve, sock_path, extra=()):
        self.proc = subprocess.Popen(
            [serve, "--socket", sock_path, "--workers", "2", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(200):
            if os.path.exists(sock_path):
                break
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited early: " +
                                   self.proc.stderr.read())
            time.sleep(0.05)
        else:
            raise RuntimeError("daemon never created its socket")
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(sock_path)
        self.buf = b""

    def ask(self, rid, path, session):
        req = {"id": rid, "source": open(path).read(), "session": session}
        self.sock.sendall((json.dumps(req) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError("connection closed mid-request")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def shutdown(self):
        """Returns False when the daemon ignored the shutdown op."""
        try:
            self.sock.sendall(b'{"id": 99, "op": "shutdown"}\n')
            self.sock.close()
            self.proc.wait(timeout=30)
            return True
        except subprocess.TimeoutExpired:
            return False
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--serve", required=True)
    ap.add_argument("--analyze", required=True)
    ap.add_argument("--edits", default="tests/corpus/edits")
    args = ap.parse_args()

    base = os.path.join(args.edits, "base.tiny")
    edits = [os.path.join(args.edits, e + ".tiny") for e in EDITS]
    for path in [base] + edits:
        if not os.path.exists(path):
            print(f"missing corpus file {path}")
            return 1

    validator = Validator(json.load(open(SCHEMA_PATH)))
    failures = 0

    # From-scratch expectations, schema validity of the CLI documents, and
    # each program's pair-group total.
    expected = {}
    totals = {}
    for path in [base] + edits:
        out, _ = run_analyze(args.analyze, path)
        doc = json.loads(out)
        errs = validator.validate(doc, validator.root)
        if errs:
            print(f"scratch {path}: schema violation: {errs[0]}")
            failures += 1
        expected[path] = result_bytes(out)
        totals[path] = group_total(args.serve, path)
        if totals[path] <= 0:
            print(f"{path}: a first session request on a cold store "
                  "should classify every pair group new")
            failures += 1

    with tempfile.TemporaryDirectory() as tmp:
        # -- CLI surface: a store fed by base, consulted per edit ---------
        base_store = os.path.join(tmp, "base.rs")
        out, _ = run_analyze(args.analyze, base,
                             ["--result-cache-file", base_store])
        if not os.path.exists(base_store):
            print("omega-analyze --result-cache-file wrote no store file")
            return 1
        if store_stats(out)[0] != 0:
            print("base run on a new store file reported store hits")
            failures += 1
        for path in edits:
            for jobs in ("1", "4"):
                tag = f"store {os.path.basename(path)} jobs {jobs}"
                store = os.path.join(tmp, f"edit-{jobs}.rs")
                shutil.copyfile(base_store, store)
                for leg in ("cold", "warm"):
                    out, _ = run_analyze(args.analyze, path,
                                         ["--jobs", jobs,
                                          "--result-cache-file", store])
                    doc = json.loads(out)
                    errs = validator.validate(doc, validator.root)
                    if errs:
                        print(f"{tag} {leg}: schema violation: {errs[0]}")
                        failures += 1
                    if result_bytes(out) != expected[path]:
                        print(f"{tag} {leg}: result differs from scratch run")
                        failures += 1
                    hits, misses = store_stats(out)
                    # Fed by base, the store supplies the untouched pairs;
                    # after the edit's own run it supplies everything.
                    if hits == 0 or (leg == "warm" and misses != 0):
                        print(f"{tag} {leg}: store hits/misses "
                              f"{hits}/{misses}")
                        failures += 1

        # -- corrupt store files must degrade to scratch, bit-identically --
        blob = open(base_store, "rb").read()
        corrupt = {
            "truncated.rs": blob[: len(blob) // 2],
            "bitflip.rs": blob[:-1] + bytes([blob[-1] ^ 0x40]),
        }
        for name, data in corrupt.items():
            bad = os.path.join(tmp, name)
            with open(bad, "wb") as f:
                f.write(data)
            out, err = run_analyze(args.analyze, edits[0],
                                   ["--result-cache-file", bad])
            if "warning" not in err:
                print(f"{name}: expected a load warning on stderr")
                failures += 1
            if result_bytes(out) != expected[edits[0]]:
                print(f"{name}: corrupt store changed the result")
                failures += 1
            if store_stats(out)[0] != 0:
                print(f"{name}: a corrupt store must start cold")
                failures += 1

        # -- serve surface: one session across base + every edit ----------
        serve_store = os.path.join(tmp, "serve.rs")
        daemon = Daemon(args.serve, os.path.join(tmp, "omega.sock"),
                        ["--result-cache-file", serve_store])
        try:
            for rid, path in enumerate([base] + edits, start=1):
                line = daemon.ask(rid, path, "edit-corpus")
                doc = json.loads(line)
                errs = validator.validate(doc, validator.root)
                if errs:
                    print(f"session {path}: schema violation: {errs[0]}")
                    failures += 1
                if result_bytes(line) != expected[path]:
                    print(f"session {path}: result differs from scratch run")
                    failures += 1
                failures = check_accounting(f"session {path}", doc,
                                            totals[path], failures)
                delta = doc["metrics"].get("delta") or {}
                if path != base and not delta.get("pairsReused"):
                    print(f"session {path}: expected pair reuse, got {delta}")
                    failures += 1
        finally:
            if not daemon.shutdown():
                print("daemon ignored the shutdown op")
                failures += 1
        if not os.path.exists(serve_store):
            print("omega-serve --result-cache-file wrote no store file")
            return 1

        # -- a restarted daemon reuses the persisted store -----------------
        daemon = Daemon(args.serve, os.path.join(tmp, "omega2.sock"),
                        ["--result-cache-file", serve_store])
        try:
            line = daemon.ask(1, edits[-1], "restarted")
            doc = json.loads(line)
            if result_bytes(line) != expected[edits[-1]]:
                print("restarted session: result differs from scratch run")
                failures += 1
            failures = check_accounting("restarted session", doc,
                                        totals[edits[-1]], failures)
            delta = doc["metrics"].get("delta") or {}
            if delta.get("pairsResolved") or delta.get("pairsNew"):
                print(f"restarted session: expected full reuse, got {delta}")
                failures += 1
        finally:
            if not daemon.shutdown():
                print("restarted daemon ignored the shutdown op")
                failures += 1

    print(f"{len(edits)} edits via CLI result store (jobs 1/4, cold/warm) + "
          "serve session + restart + corrupt store files: "
          f"{'OK' if not failures else f'{failures} FAILURES'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
