"""Subjects, seeded inputs and the fixed job list of each workload.

A subject is a base fixture of the package.  Its base texts come from
the CLI (`omsal gen --fixture <spec> --format <fmt>`); the seed then
relabels, reorients and rescales them into the `.arr`, `.chi` and
`.cov` files that the jobs read.  The results are isomorphic to the
base fixture, so every seed asks for the same work.

Each job carries a check on outputs that do not depend on labelling:
exit code, the verdict and count lines, and the total path count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

# subject -> base fixture spec
SUBJECTS = {
    "g64": "generic:6:4",
    "g63": "generic:6:3",
    "g53": "generic:5:3",
    "g43": "generic:4:3",
    "b5": "boolean:5",
    "b3": "boolean:3",
    "br4": "braid:4",
    "br3": "braid:3",
    "np": "nonpappus",
}

_VERIFY_OK = ("V0 pass", "V1 pass", "V2 pass", "V3 pass")
_MH_OK = "qmh: pass; lmh: pass; mh: pass"


@dataclass(frozen=True)
class Job:
    """One process: a CLI call, or a library script (`kind="paths"`).

    `expect` is the labelling-free digest of stdout (see `digest`);
    `files` pins (name, rows, columns) of each dumped matrix file.
    """
    name: str
    kind: str
    subject: str
    fmt: str
    args: tuple
    expect: tuple
    files: tuple = ()


def _verify(subject, fmt, covectors, rank, topes):
    return Job(f"verify-{subject}.{fmt}", "cli", subject, fmt, ("verify",),
               _VERIFY_OK + (f"covectors={covectors} rank={rank} topes={topes}",
                             "result: pass"))


def _homology(subject, betti, dump=()):
    groups = tuple(f"H_{k}: " + ("0" if not b else "Z" if b == 1 else f"Z^{b}")
                   for k, b in enumerate(betti))
    line = "betti=(" + ",".join(map(str, betti)) + ")"
    if dump:
        return Job(f"homology-dump-{subject}.arr", "cli", subject, "arr",
                   ("homology", "--dump-matrices"), groups + (line,), dump)
    return Job(f"homology-{subject}.arr", "cli", subject, "arr",
               ("homology",), groups + (line,))


def _gr_compare(subject, os_betti):
    rows = tuple(f"{k:>3} {b:>3} {b:>4}" for k, b in enumerate(os_betti))
    return Job(f"gr-compare-{subject}.arr", "cli", subject, "arr",
               ("gr-compare",), ("deg  os  H_k",) + rows + ("match",))


def _mh(subject):
    return Job(f"mh-check-{subject}.cov", "cli", subject, "cov",
               ("mh-check", "--complex", "both"),
               (f"dual: {_MH_OK}", f"salvetti: {_MH_OK}"))


def _paths(subject, topes, paths):
    return Job(f"paths-{subject}.cov", "paths", subject, "cov", (),
               (f"topes={topes} paths={paths}",))


WORKLOADS = {
    "construct": (
        _verify("g64", "arr", 345, 4, 52),
        Job("salvetti-g64.arr", "cli", "g64", "arr",
            ("salvetti", "--f-vector"), ("f=(52,264,480,320,52)",)),
        Job("gen-cov-b5.arr", "cli", "b5", "arr", ("gen", "--format", "cov"),
            ("covectors=243 topes=32",)),
        Job("os-betti-np.chi", "cli", "np", "chi", ("os-betti",),
            ("os-betti=(1,9,28,20)",)),
        _verify("br4", "arr", 75, 3, 24),
        _verify("np", "cov", 195, 3, 58),
    ),
    "homology": (
        _homology("g53", (1, 5, 10, 6)),
        _homology("g43", (1, 4, 6, 3),
                  dump=(("boundary_1.txt", 124, 1180),
                        ("boundary_2.txt", 1180, 2400),
                        ("boundary_3.txt", 2400, 1344))),
        _gr_compare("g43", (1, 4, 6, 3)),
        _homology("b3", (1, 3, 3, 1)),
        _gr_compare("br3", (1, 3, 2)),
    ),
    "mh": (_mh("np"), _mh("g63"), _mh("g53")),
    "tope_paths": (
        _paths("g53", 22, 1960),
        _paths("g63", 32, 5988),
        _paths("b5", 32, 10400),
    ),
}


def digest(job: Job, stdout: str) -> tuple:
    """The labelling-free part of a job's stdout, to compare to `expect`."""
    lines = tuple(stdout.splitlines())
    if job.args[:1] == ("gen",):
        topes = sum(1 for ln in lines if "0" not in ln)
        return (f"covectors={len(lines)} topes={topes}",)
    if job.args[:1] == ("os-betti",):
        return lines[:1]
    return lines


# -- seeded relabelling, reorientation and rescaling -------------------------

_SCALES = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
           Fraction(2, 3), Fraction(5, 4))
_FLIP = str.maketrans("+-", "-+")


@dataclass(frozen=True)
class Relabel:
    """Element i (0-based) becomes perm[i]; flipped elements change sign."""
    perm: tuple
    flips: frozenset
    scales: tuple

    @classmethod
    def draw(cls, seed: int, subject: str, n: int) -> "Relabel":
        rng = random.Random(f"{seed}/{subject}")
        perm = list(range(n))
        rng.shuffle(perm)
        flips = frozenset(i for i in range(n) if rng.random() < 0.5)
        scales = tuple(rng.choice(_SCALES) for _ in range(n))
        return cls(tuple(perm), flips, scales)

    def sign_string(self, s: str) -> str:
        out = [""] * len(s)
        for i, ch in enumerate(s):
            out[self.perm[i]] = ch.translate(_FLIP) if i in self.flips else ch
        return "".join(out)


def _colex(n, r):
    return sorted(combinations(range(1, n + 1), r),
                  key=lambda t: tuple(reversed(t)))


def _parity(seq) -> int:
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def transform_arr(text: str, rl: Relabel) -> str:
    lines = text.split("\n")
    rows = [ln for ln in lines[1:] if ln.strip()]
    out = [None] * len(rows)
    for i, row in enumerate(rows):
        k = -rl.scales[i] if i in rl.flips else rl.scales[i]
        out[rl.perm[i]] = " ".join(str(Fraction(v) * k) for v in row.split())
    return "\n".join([lines[0]] + out) + "\n"


def transform_cov(text: str, rl: Relabel) -> str:
    vecs = sorted(rl.sign_string(ln) for ln in text.split())
    return "\n".join(vecs) + "\n"


_VALUE = {"+": 1, "-": -1, "0": 0}
_CHAR = {1: "+", -1: "-", 0: "0"}


def transform_chi(text: str, rl: Relabel) -> str:
    head, signs = text.split("\n", 1)
    signs = "".join(signs.split())
    r, n = (int(tok.split("=")[1]) for tok in head.split()[1:])
    new = {}
    for basis, ch in zip(_colex(n, r), signs):
        image = [rl.perm[e - 1] + 1 for e in basis]
        sign = _VALUE[ch] * _parity(image)
        for e in basis:
            if e - 1 in rl.flips:
                sign = -sign
        new[tuple(sorted(image))] = sign
    chars = "".join(_CHAR[new[b]] for b in _colex(n, r))
    return f"{head}\n{chars}\n"


TRANSFORMS = {"arr": transform_arr, "cov": transform_cov, "chi": transform_chi}


def ground_size(fmt: str, text: str) -> int:
    if fmt == "arr":
        return sum(1 for ln in text.split("\n")[1:] if ln.strip())
    if fmt == "chi":
        return int(text.split()[2].split("=")[1])
    return len(text.split()[0])


def subjects_of(workload: str) -> dict:
    """subject -> set of formats the workload's jobs read."""
    need: dict = {}
    for job in WORKLOADS[workload]:
        need.setdefault(job.subject, set()).add(job.fmt)
    return need
