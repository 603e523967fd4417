"""The cli-session command mix, and what each command must print.

Every expected output is built from `oracle` and the bundled data, never
by running the package, so an op passes only if `nht.cli.run_command`
exits with the documented code and prints byte-identical text.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle
from nht import fixtures  # data only: the bundled rows and reference targets

N = 16
TOLERANCE = 0.01
CONVENTIONS = ("raw", "raw", "scaled", "scaled", "auto", "auto")


@dataclass(frozen=True)
class Seq:
    token: str  # what goes on the command line: a bundled name or a file path
    name: str
    values: tuple[int, ...]
    modulus: int | None


@dataclass(frozen=True)
class Expect:
    exit: int
    stdout: str = ""
    # Exact stderr text, or None where only the error prefix is checked.
    stderr: str | None = ""
    # (name under the --out path, content); "" names the --out file itself.
    files: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: Expect
    out: str | None = None  # "file" or "dir": the op appends a fresh --out path


def _lines(lines) -> str:
    return "".join(line + "\n" for line in lines)


def _f6(x) -> str:
    return f"{float(x):.6f}"


class Workspace:
    """Sequence files the mix reads, and fresh paths for the files it writes.

    Writing to a fresh path costs about 0.02 ms; renaming over an
    existing file costs tens of milliseconds on ext4, which is disk
    behaviour rather than the package's, so no op overwrites a file.
    """

    def __init__(self, root: str, rng: random.Random):
        self.root = root
        self.out_dir = os.path.join(root, "out")
        os.makedirs(self.out_dir)
        self._outs = 0
        self.rows: list[Seq] = []  # sequences with a modulus
        self.chains: list[Seq] = []  # raw chains, no modulus
        for name, sf in fixtures.BUNDLED.items():
            seq = Seq(name, name, sf.values, sf.modulus)
            (self.rows if sf.modulus else self.chains).append(seq)
        for k in range(1, 7):
            sf = fixtures.BUNDLED[f"example{k}"]
            self.rows.append(self._write(f"copy-example{k}", sf.values, sf.modulus))
        derived = self._derive_rows(rng, 4)
        self.rows.extend(derived)
        self.broken = self._broken_row(derived[0])
        self.short = self._write("short", fixtures.BUNDLED["example4"].values[:8], 331)
        self.malformed = self._raw_file("malformed.seq", b"name: bad\nn: 16\nvalues: 1 2 3\n")
        # The two inputs that raise at the seed instead of exiting 2.
        self.directory = os.path.join(root, "a-directory")
        os.makedirs(self.directory)
        self.latin1 = self._raw_file("latin1.seq", b"name: caf\xe9\nn: 2\nvalues: 1 2\n")
        self._reproduce: Expect | None = None

    def _raw_file(self, fname: str, data: bytes) -> str:
        path = os.path.join(self.root, fname)
        with open(path, "wb") as fh:
            fh.write(data)
        return path

    def _write(self, name: str, values, modulus: int) -> Seq:
        text = _lines([
            f"name: {name}", f"n: {len(values)}", f"modulus: {modulus}",
            "values: " + " ".join(map(str, values)),
        ])
        path = self._raw_file(f"{name}.seq", text.encode())
        return Seq(path, name, tuple(values), modulus)

    def _derive_rows(self, rng: random.Random, count: int) -> list[Seq]:
        """Rows regenerated from doubling chains of seed-chosen prime seeds."""
        seeds = [p for p in range(17, 500) if oracle.is_prime(p)]
        rng.shuffle(seeds)
        rows = []
        for seed in seeds:
            chain = oracle.doubling_chain(seed, N)
            q = oracle.largest_prime_factor(oracle.chain_gcd(chain))
            if q > 100:
                rows.append(self._write(f"derived-p{seed}", [v % q for v in chain], q))
            if len(rows) == count:
                return rows
        raise RuntimeError("too few derived rows")

    def _broken_row(self, row: Seq) -> Seq:
        """A copy of row with one value changed, so verify exits 1."""
        q = row.modulus
        for pos in range(N):
            values = list(row.values)
            values[pos] = (values[pos] + 1) % q
            if any(s % q for s in oracle.lag_sums(values)[1:]):
                return self._write(f"broken-{row.name}", values, q)
        raise RuntimeError("no single change breaks orthogonality")

    def fresh_out(self, kind: str) -> str:
        self._outs += 1
        suffix = ".csv" if kind == "file" else ""
        return os.path.join(self.out_dir, f"o{self._outs}{suffix}")

    # -- expected outputs ------------------------------------------------

    def resolve(self):
        """(chosen, {convention: profile rows}) over example1..4, where a
        profile row is (i, j, q, expectation, target, deviation)."""
        seqs = [fixtures.BUNDLED[f"example{k}"] for k in range(1, 5)]
        profiles = {}
        for conv in ("raw", "scaled"):
            rows = []
            for (i, j), target in sorted(fixtures.REFERENCE_EXPECTATIONS.items()):
                q = seqs[i - 1].modulus
                raw = oracle.crosscorr(seqs[i - 1].values, [v % q for v in seqs[j - 1].values])
                res = oracle.residues(raw, N, q, conv)
                if res is None:
                    break
                e = oracle.expectation(res, q)
                rows.append((i, j, q, e, Fraction(target), abs(e - Fraction(target))))
            else:
                profiles[conv] = rows
        worst = {c: max(r[5] for r in rows) for c, rows in profiles.items()}
        chosen = "scaled" if "scaled" in worst and worst["scaled"] < worst["raw"] else "raw"
        return chosen, profiles, worst

    def _convention(self, name: str) -> tuple[str, str]:
        if name != "auto":
            return name, ""
        chosen = self.resolve()[0]
        return chosen, f"auto convention resolved to {chosen}\n"

    @staticmethod
    def _ortho(seq: Seq):
        q = seq.modulus
        sums = oracle.lag_sums(seq.values)
        return sums[0] % q, [s % q for s in sums[1:]]

    def verify(self, seqs: list[Seq]) -> Command:
        lines, failed = [], False
        for s in seqs:
            r, off = self._ortho(s)
            if any(off):
                failed = True
                bad = ", ".join(f"k={k} residue {x}" for k, x in enumerate(off, 1) if x)
                lines.append(f"{s.name}: q={s.modulus} r={r} offending lags: {bad}")
            else:
                w = oracle.normalizer(r, s.modulus)
                lines.append(
                    f"{s.name}: q={s.modulus} r={r} w={'-' if w is None else w} "
                    f"lags 1..{N - 1} all zero: self-orthogonal"
                )
        argv = ("verify",) + tuple(s.token for s in seqs)
        return Command(argv, Expect(1 if failed else 0, _lines(lines)))

    def correlation(self, a: Seq, b: Seq, q: int, convention: str):
        """(raw sums, residues, convention used, stderr note)."""
        conv, note = self._convention(convention)
        raw = oracle.crosscorr([v % q for v in a.values], [v % q for v in b.values])
        return raw, oracle.residues(raw, N, q, conv), conv, note

    @staticmethod
    def correlation_csv(raw, res, q) -> str:
        return _lines(["lag,raw_sum,residue,normalized"] + [
            f"{k},{raw[k]},{res[k]},{res[k] / q:.6f}" for k in range(len(raw))
        ])

    def corr_command(self, kind: str, a: Seq, b: Seq | None, convention: str,
                     modulus_of: str = "a", out: str | None = None) -> Command:
        anchor = a if b is None or modulus_of == "a" else b
        q = anchor.modulus
        raw, res, conv, note = self.correlation(a, a if b is None else b, q, convention)
        if kind == "autocorr":
            argv = ("autocorr", a.token)
        else:
            argv = (kind, a.token, b.token, "--modulus-of", modulus_of)
        argv += ("--convention", convention)
        if kind == "expect":
            e = oracle.expectation(res, q)
            line = (f"E({a.token},{b.token}) = {oracle.expectation_text(e)} "
                    f"(exact {e.numerator}/{e.denominator}, modulus {q}, {conv})\n")
            return Command(argv, Expect(0, line, note))
        csv = self.correlation_csv(raw, res, q)
        if out:
            return Command(argv, Expect(0, "", note, (("", csv),)), out)
        return Command(argv, Expect(0, csv, note))

    def search(self, seeds_arg: str, seeds: list[int], prime_only: bool,
               valid_only: bool = False, out: str | None = None) -> Command:
        rows = ["seed,n,gcd,modulus,modulus_is_prime,diagonal_residue,normalizer,valid,values"]
        rejected = []
        for seed in sorted(set(seeds)):
            if not oracle.is_prime(seed):
                rejected.append(f"rejected: seed {seed} is not prime")
                continue
            chain = oracle.doubling_chain(seed, N)
            g = oracle.chain_gcd(chain)
            q = oracle.largest_prime_factor(g) if prime_only else g
            r = sum(v * v for v in chain) % q
            w = oracle.normalizer(r, q) if r else None
            prime = "true" if oracle.is_prime(q) else "false"
            values = " ".join(str(v % q) for v in chain)
            rows.append(f"{seed},{N},{g},{q},{prime},{r},{'' if w is None else w},true,{values}")
        argv = ("search", "--seeds", seeds_arg, "--n", str(N))
        argv += ("--prime-only",) * prime_only + ("--valid-only",) * valid_only
        csv, err = _lines(rows), _lines(rejected)
        if out:
            return Command(argv, Expect(0, "", err, (("", csv),)), out)
        return Command(argv, Expect(0, csv, err))

    def reproduce(self, out: str | None = None) -> Command:
        if self._reproduce is None:
            self._reproduce = self._reproduce_expect()
        e = self._reproduce
        if out:
            return Command(("reproduce",), e, out)
        return Command(("reproduce",), Expect(e.exit, e.stdout))

    def _reproduce_expect(self) -> Expect:
        lines, verification = [], ["name,modulus,diagonal_residue,normalizer,self_orthogonal"]
        checks = []
        for seq in self.rows[:6]:  # example1..6, in order
            r, off = self._ortho(seq)
            ok = not any(off)
            w = oracle.normalizer(r, seq.modulus) if r else None
            checks.append((ok, f"row orthogonality: {seq.name} q={seq.modulus} r={r} "
                               f"({off.count(0)}/{len(off)} lag residues zero)"))
            verification.append(f"{seq.name},{seq.modulus},{r},{'' if w is None else w},"
                                f"{'true' if ok else 'false'}")
        chosen, profiles, worst = self.resolve()
        other = "scaled" if chosen == "raw" else "raw"
        note = (f"vs {other} {_f6(worst[other])}" if other in worst
                else "no alternative applicable")
        checks.append((float(worst[chosen]) <= TOLERANCE,
                       f"convention resolution: {chosen} (max deviation "
                       f"{_f6(worst[chosen])} {note})"))
        seqs = [fixtures.BUNDLED[f"example{k}"] for k in range(1, 5)]
        table, within = ["i,j,modulus,expectation"], 0
        for i in range(1, 5):
            for j in range(1, 5):
                if i != j:
                    q = seqs[i - 1].modulus
                    raw = oracle.crosscorr(seqs[i - 1].values, [v % q for v in seqs[j - 1].values])
                    e = oracle.expectation(oracle.residues(raw, N, q, chosen), q)
                    within += abs(e - fixtures.REFERENCE_EXPECTATIONS[(i, j)]) <= TOLERANCE
                    table.append(f"{i},{j},{q},{oracle.expectation_text(e)}")
        checks.append((within == 12, f"pair expectations: {within}/12 within "
                                     f"{TOLERANCE} under {chosen}"))
        expected = {2: "example4", 3: "example3", 11: "example5", 13: "example6"}
        moduli, match = [], True
        for seed, name in expected.items():
            chain = oracle.doubling_chain(seed, N)
            q = oracle.largest_prime_factor(oracle.chain_gcd(chain))
            target = fixtures.BUNDLED[name]
            match &= q == target.modulus and tuple(v % q for v in chain) == target.values
            moduli.append(str(q))
        checks.append((match, f"chain regeneration: seeds 2,3,11,13 -> moduli "
                              f"{','.join(moduli)} match bundled rows"))
        lines = [("PASS " if ok else "FAIL ") + label for ok, label in checks]
        profile_csv = ["convention,i,j,modulus,expectation,target,deviation"] + [
            f"{conv},{i},{j},{q},{_f6(e)},{_f6(t)},{_f6(d)}"
            for conv, rows in profiles.items() for i, j, q, e, t, d in rows
        ]
        files = (
            ("verification.csv", _lines(verification)),
            ("pair_expectations.csv", _lines(table)),
            ("convention_profiles.csv", _lines(profile_csv)),
        )
        return Expect(0 if all(ok for ok, _ in checks) else 1, _lines(lines), "", files)

    def malformed_commands(self) -> list[Command]:
        """Inputs the CLI documents as usage or input errors: exit 2."""
        argvs = [
            ("transform", "example1"),
            ("search", "--seeds", "2,x,5", "--n", "16"),
            ("verify", os.path.join(self.root, "missing.seq")),
            ("autocorr", self.malformed),
            ("verify", "chain3"),
            ("search", "--seeds", "50..2", "--n", "16"),
            ("xcorr", "example1", self.short.token),
            ("search", "--seeds", "2,3", "--n", "sixteen"),
        ]
        return [Command(a, Expect(2, "", None)) for a in argvs]

    def defect_probes(self) -> list[Command]:
        """Inputs documented to exit 2 that raise instead at the seed
        (IsADirectoryError, UnicodeDecodeError)."""
        return [Command(("verify", path), Expect(2, "", None))
                for path in (self.directory, self.latin1)]


def check(expect: Expect, exit_status: int, stdout: str, stderr: str,
          out_path: str | None) -> str | None:
    """None when the run matches expect, else what differed."""
    if exit_status != expect.exit:
        return f"exit {exit_status}, documented {expect.exit}"
    if stdout != expect.stdout:
        return "stdout differs from the oracle"
    if expect.stderr is None:
        if not stderr.startswith(("usage error: ", "error: ")):
            return "no error message on stderr"
    elif stderr != expect.stderr:
        return "stderr differs from the oracle"
    for name, content in expect.files:
        path = os.path.join(out_path, name) if name else out_path
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                if fh.read() != content:
                    return f"{path} differs from the oracle"
        except OSError as exc:
            return f"{path} unreadable: {exc}"
    return None


def command_mix(ws: Workspace, rng: random.Random) -> list[Command]:
    """One cycle of the session: 36 commands in a seeded order.

    The share of each command kind, convention and --out use is fixed;
    the seed picks operands, seed lists and the order. So the cost of a
    cycle varies little between seeds while the inputs do.
    """
    rows, anyseq = ws.rows, ws.rows + ws.chains
    cmds = [ws.verify(rng.sample(rows, 1 + k % 3)) for k in range(6)]
    cmds.append(ws.verify([ws.broken]))
    for k, conv in enumerate(CONVENTIONS):
        out = "file" if k % 2 else None
        cmds.append(ws.corr_command("autocorr", rng.choice(rows), None, conv, out=out))
        a, b = rng.choice(rows), rng.choice(anyseq)
        of = "b" if b.modulus and k % 2 else "a"
        cmds.append(ws.corr_command("xcorr", a, b, conv, of, out))
        a, b = rng.choice(rows), rng.choice(anyseq)
        of = "b" if b.modulus and not k % 2 else "a"
        cmds.append(ws.corr_command("expect", a, b, conv, of))
    primes = [p for p in range(2, 400) if oracle.is_prime(p)]
    composites = [c for c in range(4, 400) if not oracle.is_prime(c)]
    for prime_only, valid_only in ((True, False), (True, True), (False, False)):
        seeds = rng.sample(primes, 5) + [rng.choice(composites)]
        rng.shuffle(seeds)
        cmds.append(ws.search(",".join(map(str, seeds)), seeds, prime_only, valid_only))
    for out in (None, "file"):
        lo = rng.randrange(2, 300)
        window = [p for p in primes if p >= lo][:6]
        cmds.append(ws.search(f"{lo}..{window[-1]}", window, True, out=out))
    cmds += [ws.reproduce(), ws.reproduce("dir")]
    cmds += rng.sample(ws.malformed_commands(), 4)
    rng.shuffle(cmds)
    return cmds
