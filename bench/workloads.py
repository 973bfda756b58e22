"""The three benchmark workloads: inputs from a seed, one pass of timed
operations, and the checks on every output.

A workload's ``setup`` imports the package and builds the inputs; it is
what ``setup_s`` measures.  ``operations`` lists the pass as
(label, zero-argument callable); the runner times each call and hands
the result to ``check``, which returns None or a failure kind.
``run_checks`` holds the checks that look at a whole run rather than
one operation.  No check runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import oracles

# A failure kind listed here is a defect recorded in ROADMAP.md and not
# yet fixed.  It still counts in ``failed``; it only keeps ``correct``
# true, so that any other wrong output is what flips ``correct``.
KNOWN_DEFECTS = {"dissect-III-not-centrally-symmetric"}


def import_layers(with_cli: bool) -> dict:
    """The package modules, looked up through importlib: the package
    attribute ``quiddity.frieze`` is a function, not the module."""
    importlib.import_module("quiddity")
    names = ["matrices", "surgery", "search", "dissection", "frieze"]
    if with_cli:
        names.append("cli")
    return {name: importlib.import_module(f"quiddity.{name}") for name in names}


class Workload:
    name = ""
    with_cli = False

    def __init__(self, seed: int):
        self.seed = seed
        self.mods: dict = {}

    def setup(self) -> tuple[float, float]:
        """Import the package and generate the inputs; returns the
        seconds spent on each."""
        t0 = perf_counter()
        self.mods = import_layers(self.with_cli)
        t1 = perf_counter()
        self.generate()
        return t1 - t0, perf_counter() - t1

    def generate(self) -> None:
        raise NotImplementedError

    def inputs(self):
        """The generated inputs, for the determinism checks."""
        raise NotImplementedError

    def operations(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, label: str, result) -> str | None:
        raise NotImplementedError

    def run_checks(self) -> list[str]:
        return []

    def record(self, results: list) -> dict:
        """Digests of the outputs, kept with the result."""
        return {}


# -- count-tables ------------------------------------------------------------

# (problem, n_max, brute-force cross-check up to n)
TABLES = (("I", 11, 9), ("II", 11, 9), ("III", 9, 7))


class CountTables(Workload):
    """The solution-count tables, each cross-checked by brute force at
    the smaller lengths: the closure and the oracle in bulk."""

    name = "count-tables"

    def generate(self):
        self.order = list(TABLES)
        random.Random(self.seed).shuffle(self.order)

    def inputs(self):
        return self.order

    def operations(self):
        search = self.mods["search"]
        return [
            (f"count_table:{p}", lambda p=p, n=n, c=c: search.count_table(p, n, cross_check_up_to=c))
            for p, n, c in self.order
        ]

    def check(self, label, result):
        problem = label.split(":")[1]
        expected = sorted(oracles.PINNED_COUNTS[problem].items())
        return None if result == expected else f"count_table-{problem}-mismatch"

    def run_checks(self):
        """Every word of every (problem, n) set must solve its equation,
        once; with the pinned counts that fixes each set exactly."""
        search = self.mods["search"]
        self.digests = {}
        bad = []
        for problem, n_max, _ in TABLES:
            for n in range(2 if problem == "III" else 3, n_max + 1):
                words = search.generative_enumerate(problem, n).words
                self.digests[f"{problem}:{n}"] = oracles.digest(words)
                if (len(set(words)) != oracles.PINNED_COUNTS[problem][n]
                        or any(len(w) != n or oracles.problem_of(w) != problem for w in words)):
                    bad.append(f"word-set-{problem}-{n}")
        return bad

    def record(self, results):
        return {"word_set_sha256": self.digests}


# -- dissection-census -------------------------------------------------------

CENSUS_COUNT_N = 12
CENSUS_SWEEP_N = 11
SYMMETRIC_WORDS = 3  # Problem III words of length 5
QUIDDITY_WORDS = 4  # Problem II words of length 10
SOL_I_PLUS_II_11 = oracles.PINNED_COUNTS["I"][11] + oracles.PINNED_COUNTS["II"][11]


class DissectionCensus(Workload):
    """Enumeration, faces and quiddities of every 3d-dissection of a
    polygon, plus the two searches built on the enumerator."""

    name = "dissection-census"

    def generate(self):
        search = self.mods["search"]
        rng = random.Random(self.seed)
        self.sym_words = rng.sample(sorted(search.generative_enumerate("III", 5).words),
                                    SYMMETRIC_WORDS)
        self.quid_words = rng.sample(sorted(search.generative_enumerate("II", 10).words),
                                     QUIDDITY_WORDS)

    def inputs(self):
        return self.sym_words, self.quid_words

    def operations(self):
        d, surgery = self.mods["dissection"], self.mods["surgery"]

        def count():
            return sum(1 for _ in d.iter_dissections(CENSUS_COUNT_N))

        def sweep():
            return [
                (tuple(sorted(x.diagonals)), q, d.even_face_parity(x), surgery.solution_class(q).value)
                for x in d.iter_dissections(CENSUS_SWEEP_N)
                for q in (d.quiddity(x),)
            ]

        ops = [(f"count:{CENSUS_COUNT_N}", count), (f"sweep:{CENSUS_SWEEP_N}", sweep)]
        ops += [(f"symmetric:{w}", lambda w=w: d.symmetric_dissection(w)) for w in self.sym_words]
        ops += [(f"with_quiddity:{w}", lambda w=w: d.dissections_with_quiddity(w))
                for w in self.quid_words]
        return ops

    def check(self, label, result):
        kind, _, arg = label.partition(":")
        if kind == "count":
            return None if result == oracles.dissection_count(int(arg)) else "count-mismatch"
        if kind == "sweep":
            return _check_sweep(int(arg), result)
        word = tuple(int(x) for x in arg.strip("()").split(","))
        if kind == "symmetric":
            if _dissection_fault(result.n, result.diagonals, word + word):
                return "symmetric-bad-dissection"
            if not oracles.is_centrally_symmetric(result.n, result.diagonals):
                return "symmetric-not-centrally-symmetric"
            return None
        keys = {tuple(sorted(x.diagonals)) for x in result}
        if not result or len(keys) != len(result):
            return "with_quiddity-empty-or-repeated"
        if any(_dissection_fault(x.n, x.diagonals, word) for x in result):
            return "with_quiddity-bad-dissection"
        return None


def _dissection_fault(n: int, diagonals, quiddity) -> str | None:
    """Why (n, diagonals) is not a 3d-dissection with this quiddity."""
    try:
        faces = oracles.faces_of(n, diagonals)
    except ValueError as exc:
        return str(exc)
    if any(len(f) % 3 for f in faces):
        return "a face size is not a multiple of 3"
    if oracles.quiddity_of(n, faces) != tuple(quiddity):
        return "quiddity differs"
    return None


def _check_sweep(n: int, rows) -> str | None:
    if len(rows) != oracles.dissection_count(n) or len({r[0] for r in rows}) != len(rows):
        return "sweep-dissection-count"
    classes = {}
    for diagonals, q, parity, cls in rows:
        if _dissection_fault(n, diagonals, q):
            return "sweep-bad-quiddity"
        if cls != {"odd": "I", "even": "II"}.get(parity):
            return "sweep-parity-vs-class"
        classes[q] = cls
    if len(classes) != SOL_I_PLUS_II_11 or any(
            oracles.problem_of(q) != cls for q, cls in classes.items()):
        return "sweep-quiddity-set"
    return None


# -- cli-queries -------------------------------------------------------------

# One pass: (kind, problem, lengths, calls).  Lengths are dealt round
# robin and words drawn at random, so every seed gets the same mix of
# kinds and sizes; that keeps the slow tail comparable across seeds.
# Problem III dissect words are the exception: they are drawn uniformly
# from all III words of those lengths, as a user would meet them.
CLI_MIX = (
    ("verify", "I", range(6, 11), 100),
    ("verify", "II", range(3, 11), 100),
    ("verify", "III", range(2, 8), 100),
    ("dissect", "I", range(6, 11), 67),
    ("dissect", "II", range(3, 11), 67),
    ("dissect", "III", range(2, 8), 65),
    ("frieze", "II", range(3, 11), 100),
    ("frieze", "III", range(2, 8), 100),
    ("decompose", None, range(2, 13), 170),
    ("farey", None, range(2, 13), 30),
    ("verify-none", None, range(3, 11), 80),
    ("malformed", None, range(5), 20),
)
# Always in the stream: the reproduction of the open ROADMAP defect
# (a Problem III word whose dissection is not centrally symmetric).
PINNED_QUERIES = (("dissect", "III", (1, 2, 1, 2, 1, 2)),)
POOLS = {"I": range(6, 11), "II": range(3, 11), "III": range(2, 8)}


def _malformed(rng: random.Random, variant: int, word_ii) -> list[str]:
    """An argument that reaches a subcommand and must be refused there.
    No argument starts with "-" unless it is a number: argparse would
    reject it itself, with a usage banner rather than one line."""
    word = [str(rng.randint(1, 6)) for _ in range(rng.randint(3, 8))]
    pos = rng.randrange(1, len(word))
    if variant == 0:
        word[pos] = rng.choice(["x", "1.5", "", "-"])
        return ["verify", ",".join(word)]
    if variant == 1:
        word[pos] = rng.choice(["0", "-2"])
        return ["dissect", ",".join(word)]
    if variant == 2:
        a, b, c, d = (rng.randint(1, 9) for _ in range(4))
        if rng.random() < 0.5:
            return ["decompose", f"{a},{b},{c}"]
        if a * d - b * c == 1:
            d += 1
        return ["decompose", f"{a},{b},{c},{d}"]
    if variant == 3:
        return ["farey", str(rng.randint(-1, 1))]
    return ["frieze", ",".join(map(str, word_ii)), "--rows", "0"]


def make_stream(seed: int, pools: dict) -> list[tuple]:
    """The seeded query stream: (kind, problem, argv tail, payload)."""
    rng = random.Random(seed)
    stream = [(kind, problem, [kind, _text(w)], w) for kind, problem, w in PINNED_QUERIES]
    for kind, problem, lengths, calls in CLI_MIX:
        lengths = list(lengths)
        if problem is not None:
            by_length = [pools[problem][n] for n in lengths]
            if (kind, problem) == ("dissect", "III"):
                by_length = [[w for ws in by_length for w in ws]]
        for k in range(calls):
            n = lengths[k % len(lengths)]
            if problem is not None:
                word = rng.choice(by_length[k % len(by_length)])
                stream.append((kind, problem, [kind, _text(word)], word))
            elif kind == "decompose":
                m = oracles.product([rng.randint(1, 6) for _ in range(n)])
                # "--" lets a matrix that starts with a minus sign through argparse
                stream.append((kind, None, [kind, "--", _text(m)], m))
            elif kind == "farey":
                stream.append((kind, None, [kind, str(n)], n))
            elif kind == "verify-none":
                word = tuple(rng.randint(1, 6) for _ in range(n))
                while oracles.problem_of(word) is not None:
                    word = tuple(rng.randint(1, 6) for _ in range(n))
                stream.append((kind, None, ["verify", _text(word)], word))
            else:
                stream.append((kind, None, _malformed(rng, n, rng.choice(pools["II"][8])), None))
    rng.shuffle(stream)
    return stream


def _text(word) -> str:
    return ",".join(map(str, word))


class CliQueries(Workload):
    """A closed loop of in-process ``quiddity --format json`` calls by
    one client: each call starts when the previous one has returned."""

    name = "cli-queries"
    with_cli = True

    def generate(self):
        search = self.mods["search"]
        self.pools = {
            p: {n: sorted(search.generative_enumerate(p, n).words) for n in ns}
            for p, ns in POOLS.items()
        }
        self.stream = make_stream(self.seed, self.pools)

    def inputs(self):
        return self.stream

    def operations(self):
        main = self.mods["cli"]

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main.main(argv)
            return code, out.getvalue(), err.getvalue()

        self._by_label = {}
        ops = []
        for i, query in enumerate(self.stream):
            label = f"{i}:{query[0]}"
            self._by_label[label] = query
            ops.append((label, lambda argv=["--format", "json"] + query[2]: call(argv)))
        return ops

    def check(self, label, result):
        kind, problem, _, payload = self._by_label[label]
        code, out, err = result
        if kind == "malformed":
            ok = code == 2 and out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
            return None if ok else "malformed-not-rejected"
        expected_code = 1 if kind == "verify-none" else 0
        if code != expected_code:
            return f"{kind}-exit-{code}"
        try:
            doc = json.loads(out)
        except ValueError:
            return f"{kind}-bad-json"
        return _check_cli_doc(kind, problem, payload, doc)

    def record(self, results):
        stdout = "".join(out for _, out, _ in results)
        return {"stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}

    def run_checks(self):
        bad = []
        for p, by_n in self.pools.items():
            for n, words in by_n.items():
                if len(words) != oracles.PINNED_COUNTS[p][n] or any(
                        oracles.problem_of(w) != p for w in words):
                    bad.append(f"input-pool-{p}-{n}")
        return bad


def _check_cli_doc(kind, problem, payload, doc) -> str | None:
    if kind == "verify":
        ok = (doc.get("class") == problem and doc.get("word") == list(payload)
              and doc.get("sum") == doc.get("sum_expected"))
        return None if ok else "verify-wrong"
    if kind == "verify-none":
        return None if doc.get("class") == "none" and doc.get("word") == list(payload) else "verify-none-wrong"
    if kind == "dissect":
        word = payload + payload if problem == "III" else payload
        if doc.get("n") != len(word) or _dissection_fault(len(word), doc.get("diagonals", []), word):
            return "dissect-wrong-quiddity"
        if problem == "III" and not oracles.is_centrally_symmetric(len(word), doc["diagonals"]):
            return "dissect-III-not-centrally-symmetric"
        return None
    if kind == "frieze":
        n = len(payload)
        rows = oracles.frieze_rows(payload, n - 2 if problem == "II" else 2 * n - 2)
        ok = doc.get("rows") == rows and doc.get("tame") is True
        if problem == "III":
            ok = ok and doc.get("glide") is True
        return None if ok else "frieze-wrong"
    if kind == "decompose":
        reduced = doc.get("reduced") or [0]
        m = oracles.product(reduced)
        ok = min(reduced) >= 1 and (m == payload or m == tuple(-x for x in payload))
        return None if ok else "decompose-wrong"
    # farey
    word = doc.get("word", [])
    cls = oracles.problem_of(word) if word else None
    ok = (len(word) == oracles.farey_size(payload) and cls in ("I", "II")
          and doc.get("class") == cls and sum(word) == 3 * len(word) - 6)
    return None if ok else "farey-wrong"


WORKLOADS = {w.name: w for w in (CountTables, DissectionCensus, CliQueries)}
