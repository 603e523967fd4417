"""The three workloads: inputs made from a seed, the timed op, and its check.

Each workload object is built by its set-up (which derives and checks
its rows) and then hands out ops. An op is the inputs it was given, a
`run` thunk that is the only timed code, and a `check` that compares
the result with `oracle` and returns None or what was wrong. The
package is always reached through module attributes looked up at call
time, so `tracer.Tracer` can rebind them.
"""

from __future__ import annotations

import io
import math
import os
import random
import shutil
from typing import Callable, NamedTuple

import nht.cli
import nht.core
import nht.search

import cli_mix
import oracle


class Op(NamedTuple):
    label: str
    inputs: tuple
    run: Callable[[], object]
    check: Callable[[object], str | None]


class SetupError(Exception):
    """The package gave a wrong answer, or no usable input exists, during set-up."""


def _next_prime(p: int) -> int:
    p += 1
    while not oracle.is_prime(p):
        p += 1
    return p


def transform_op(label: str, row, r: int, block: list[int], full: bool) -> Op:
    """Forward plus inverse transform of block under row.

    The check compares the round trip with the input block; with full
    set it also compares the forward result with the naive product and
    runs the naive inverse on it, which an identity pair would fail.
    """
    v, q = row.values, row.modulus

    def run():
        g = nht.core.forward_transform(row, block)
        return g, nht.core.inverse_transform(row, g, r)

    def check(result):
        g, f = result
        if list(f) != block:
            return "inverse transform did not return the block"
        if full and list(g) != oracle.forward(v, q, block):
            return "forward transform differs from the naive product"
        if full and oracle.inverse(v, q, list(g), r) != block:
            return "naive inverse of the forward result is not the block"
        return None

    return Op(label, (v, q, r, tuple(block)), run, check)


def cli_op(ws: cli_mix.Workspace, cmd: cli_mix.Command) -> Op:
    argv, out_path = list(cmd.argv), None
    if cmd.out:
        out_path = ws.fresh_out(cmd.out)
        argv += ["--out", out_path]
    out, err = io.StringIO(), io.StringIO()

    def run():
        return nht.cli.run_command(argv, out, err)

    def check(report):
        problem = cli_mix.check(cmd.expect, report.exit_status, out.getvalue(),
                                err.getvalue(), out_path)
        if out_path and os.path.isdir(out_path):
            shutil.rmtree(out_path)
        elif out_path and os.path.exists(out_path):
            os.unlink(out_path)
        return problem

    inputs = tuple(os.path.relpath(a, ws.root) if a.startswith(ws.root) else a
                   for a in argv)
    return Op("nht " + " ".join(inputs), inputs, run, check)


def preflight_ops(ws: cli_mix.Workspace) -> list[Op]:
    """A pass through every traced layer on the bundled n=16 rows.

    Runs in every workload's set-up, so each layer's answers are checked
    on every workload, not only on the one that times it.
    """
    copy = next(s for s in ws.rows if s.name == "copy-example4")
    row = nht.core.ResidueSequence(copy.values, copy.modulus)
    r = sum(v * v for v in copy.values) % copy.modulus
    return [
        cli_op(ws, ws.reproduce("dir")),
        cli_op(ws, ws.corr_command("autocorr", copy, None, "raw", out="file")),
        transform_op("round trip example4", row, r, list(range(2 * row.n)), True),
    ]


class BlockStream:
    """Forward plus inverse round trips of fresh seeded blocks at n=512.

    Rows come from a doubling chain's lag-sum gcd, narrowed to a 13-15-bit
    prime like the bundled rows' moduli (47 to 21851). Below 2^15 every
    product of two residues fits one 30-bit CPython digit, so the cost of
    an op does not depend on which prime the seed found. Each group of
    GROUP blocks shares a row; between groups the row is rotated and
    scaled by a nonzero c, which keeps it self-orthogonal (every lag sum
    scales by c^2) but makes it a row no earlier op has used. The naive
    oracles check the first block of every group; every op checks its
    round trip.
    """

    name = "block-stream"
    N = 512
    GROUP = 8
    LOW, HIGH = 1 << 12, 1 << 15

    def __init__(self, rng: random.Random, ws: cli_mix.Workspace):
        self.rng = rng
        self.base, self.q, self.r = self._derive_row()
        self.row, self.row_r = None, None  # the current group's row and its r
        self.i = 0

    def _derive_row(self):
        """The first chain from a seed-chosen prime whose gcd has a prime
        factor in [LOW, HIGH); that factor is the row's modulus.

        `factorize` is not used: it has no bound on these 500-bit gcds.
        Chains are screened with the gcd's closed form (2^(n+1) + 6s - 8) / 3,
        which holds for every doubling chain checked so far, and the chosen
        one is confirmed against the package's own lag sums.
        """
        sieve = bytearray([1]) * self.HIGH
        for d in range(2, math.isqrt(self.HIGH) + 1):
            if sieve[d]:
                sieve[d * d::d] = bytes(len(range(d * d, self.HIGH, d)))
        primes = [d for d in range(self.HIGH - 1, self.LOW - 1, -1) if sieve[d]]
        seed = _next_prime(self.rng.randrange(2, 2000))
        for _ in range(200):
            screen = ((1 << (self.N + 1)) + 6 * seed - 8) // 3
            q = next((d for d in primes if screen % d == 0), None)
            if q:
                chain = nht.search.doubling_chain(seed, self.N)
                g = nht.core.discover_modulus(nht.core.gram_lag_sums(chain))
                values = [v % q for v in chain.values]
                r = sum(v * v for v in values) % q
                if g % q == 0 and r:
                    self._verify(values, q, r)
                    return values, q, r
            seed = _next_prime(seed)
        raise SetupError("no chain gcd with a prime factor in range")

    @staticmethod
    def _verify(values, q, r):
        if any(s % q for s in oracle.lag_sums(values)[1:]):
            raise SetupError(f"derived row is not self-orthogonal mod {q}")
        report = nht.core.orthogonality_report(nht.core.ResidueSequence(values, q))
        if not report.is_self_orthogonal or report.diagonal_residue != r:
            raise SetupError("orthogonality_report disagrees with the oracle")
        if not oracle.normalizer_ok(report.normalizer, r, q):
            raise SetupError("orthogonality_report normalizer is wrong")

    def next_op(self) -> Op:
        n, q = self.N, self.q
        first = self.i % self.GROUP == 0
        if first:
            shift, c = self.rng.randrange(n), self.rng.randrange(1, q)
            self.row = nht.core.ResidueSequence(
                [c * self.base[(j + shift) % n] % q for j in range(n)], q)
            self.row_r = c * c * self.r % q
        block = [self.rng.randrange(q) for _ in range(2 * n)]
        self.i += 1
        return transform_op(f"block {self.i}", self.row, self.row_r, block, first)


class ChainSearch:
    """One `search_seeds([p], 64, prime_only=True)` per op, p consecutive
    primes from a seed-chosen start in [3000, 10000)."""

    name = "chain-search"
    N = 64

    def __init__(self, rng: random.Random, ws: cli_mix.Workspace):
        self.p = _next_prime(rng.randrange(3000, 10000) - 1)

    def next_op(self) -> Op:
        p, n = self.p, self.N
        self.p = _next_prime(p)

        def run():
            return nht.search.search_seeds([p], n, prime_only=True)

        def check(report):
            if report.rejected or len(report.candidates) != 1:
                return "expected exactly one candidate"
            c = report.candidates[0]
            chain = oracle.doubling_chain(p, n)
            g = oracle.chain_gcd(chain)
            q = c.modulus
            r = sum(v * v for v in chain) % q if q else None
            if (c.seed, c.n, c.raw.values, c.gcd) != (p, n, tuple(chain), g):
                return "seed, chain or gcd differs from the oracle"
            if not (c.valid and c.modulus_is_prime and oracle.is_largest_prime_factor(q, g)):
                return f"modulus {q} is not the largest prime factor of the gcd"
            if c.diagonal_residue != r or c.reduced.values != tuple(v % q for v in chain):
                return "diagonal residue or reduced row differs from the oracle"
            if not oracle.normalizer_ok(c.normalizer, r, q):
                return "normalizer is wrong"
            return None

        return Op(f"search --seeds {p} --n {n} --prime-only", (p,), run, check)


class CliSession:
    """In-process `run_command` over a fixed seeded mix of all six subcommands."""

    name = "cli-session"

    def __init__(self, rng: random.Random, ws: cli_mix.Workspace):
        self.ws = ws
        self.cmds = cli_mix.command_mix(ws, rng)
        self.i = 0

    def next_op(self) -> Op:
        cmd = self.cmds[self.i % len(self.cmds)]
        self.i += 1
        return cli_op(self.ws, cmd)


WORKLOADS = {w.name: w for w in (BlockStream, ChainSearch, CliSession)}


def build(name: str, seed: int, workdir: str):
    """Set-up without the package's preflight: workspace, then workload."""
    rng = random.Random(f"{name}:{seed}")
    ws = cli_mix.Workspace(workdir, rng)
    return ws, WORKLOADS[name](rng, ws)
