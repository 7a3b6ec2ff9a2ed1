"""The pinned CLI workloads, their expected reports, and stream sizes.

Each workload is one `dirsets` invocation.  Its stdout sha256 and exit
code were pinned from the commit that introduced this benchmark; a run
whose report differs by one byte counts as failed.  The config header of
every report embeds `workers`, so the workers=1 variant used by the
traced run has its own digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import comb

S8 = ("thm-m,size-q-trichotomy,line-congruence,tail-degree-bound,"
      "root-power-bound,power-membership,power-span,moduli-order")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple            # arguments of dirsets.cli.main
    exit_code: int
    sha256: str            # stdout digest of argv
    traced_sha256: str     # stdout digest of argv at --workers 1
    why: str

    @property
    def traced_argv(self) -> tuple:
        """argv at one worker, the CLI's default when --workers is absent."""
        argv = list(self.argv)
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = "1"
        return tuple(argv)

    @property
    def q(self) -> int:
        return int(flags(self.argv)["--q"])


def flags(argv) -> dict:
    """Flag -> value for an argv of `verb --flag value ...`."""
    rest = argv[1:]
    if len(rest) % 2:
        raise ValueError(f"flags without values in {argv!r}")
    return dict(zip(rest[0::2], rest[1::2]))


def sets_covered(argv) -> int:
    """Point sets covered by the configured stream.

    Exhaustive: sum of C(q^2, n) over the size range.  Random: the budget.
    Sets that symmetry reduction (or later pruning) skips still count.
    """
    f = flags(argv)
    if f.get("--mode", "exhaustive") == "random":
        return int(f["--budget"])
    q = int(f["--q"])
    n_max = int(f.get("--n-max", q * q))
    return sum(comb(q * q, n) for n in range(int(f.get("--n-min", 0)), n_max + 1))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_problem(wl: Workload, traced: bool, exit_code: int, stdout: bytes):
    """None when a run reproduced the pinned report, else why not."""
    want = wl.traced_sha256 if traced else wl.sha256
    if exit_code != wl.exit_code:
        return f"exit code {exit_code}, expected {wl.exit_code}"
    got = sha256(stdout)
    if got != want:
        return f"stdout sha256 {got}, expected {want}"
    return None


_CATALOG = ("search", "--q", "4", "--n-min", "0", "--n-max", "8",
            "--statements", S8)

WORKLOADS = {wl.name: wl for wl in (
    Workload(
        "catalog-q4",
        _CATALOG + ("--format", "csv", "--workers", "2"),
        0,
        "470d2779e54aaad87f4ac0ca0cc285d3f9c8328588aad6c604af43effc3a8b37",
        "b1350d45ca15d56d414087be4f5345d4c81827a630af9b86d128bd95d76a3b40",
        "whole catalog over the 39203-set q=4 stream at 2 workers: geometry "
        "profiles, the bivariate Redei system and CSV serialisation"),
    Workload(
        "moduli-q5",
        ("search", "--q", "5", "--n-min", "0", "--n-max", "5",
         "--statements", "prime-dichotomy,moduli-order", "--format", "json"),
        0,
        "0609808596922cbdbe1ab08a121d06cd14fed9609e9aa2b9afa78e9b382c76c1",
        "0609808596922cbdbe1ab08a121d06cd14fed9609e9aa2b9afa78e9b382c76c1",
        "68406 sets at q=5 where specialized tails (p_mul, p_divmod) dominate: "
        "where a per-slope kernel must show"),
    Workload(
        "orbit-q4",
        _CATALOG + ("--symmetry", "on", "--format", "json", "--workers", "1"),
        0,
        "8c090f065c71fd0dff47f0040633b7f46f2c56f2110a951ab829887bb44468c6",
        "8c090f065c71fd0dff47f0040633b7f46f2c56f2110a951ab829887bb44468c6",
        "same 39203-set stream with symmetry on: time sits in enumeration and "
        "the orbit filter, 44 representatives are evaluated"),
    Workload(
        "hunt-q8",
        ("hunt", "--conjecture", "conj-moduli-match", "--q", "8", "--mode",
         "random", "--seed", "42", "--n-min", "2", "--n-max", "8", "--budget",
         "40000", "--format", "json"),
        2,
        "957610d5672cadf5c72750aaf9a2c0802b3b56d6a79ecd00fc48078ba1721ab2",
        "957610d5672cadf5c72750aaf9a2c0802b3b56d6a79ecd00fc48078ba1721ab2",
        "seeded random hunt on GF(8): the only user of is_maximal; exit 2 "
        "because counterexamples are reported"),
)}
