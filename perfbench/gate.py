"""The benchmark's own correctness gate.

Every checked unit of work (a blocklength step of a sweep, a streamed
transform, a reload) is compared against oracles that live here rather than
in ``laurentfft``: ``np.fft.fft`` for transform outputs, a tolerance fixed
in this file, and an independent evaluation of the Heideman bound. A change
under ``src/`` therefore cannot loosen the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

MAX_PROBLEMS_KEPT = 20


def tolerance(n: int) -> float:
    """Largest accepted max-abs error against ``np.fft.fft``."""
    return 1e-10 if n <= 32 else 1e-9


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_powers(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while n > 1:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out


def heideman_reference(n: int) -> int:
    """Heideman's DFT multiplicative complexity, evaluated by recursion over
    the prime powers of n with brute-force totients and divisor lists."""
    primes = _prime_powers(n)

    def inner(ratios: list[int], k: int, num: int, lcm: int) -> Fraction:
        if k == len(ratios):
            return Fraction(num, _totient(lcm))
        return sum((inner(ratios, k + 1, num * _totient(d), math.lcm(lcm, d))
                    for d in _divisors(ratios[k])), Fraction(0))

    def level(k: int, parts: list[int]) -> Fraction:
        if k == len(primes):
            ratios = [_totient(q) // _totient(math.gcd(q, 4)) for q in parts]
            return _totient(math.gcd(math.prod(parts), 4)) * (
                1 + inner(ratios, 0, 1, 1))
        p, e = primes[k]
        return sum((level(k + 1, parts + [p ** i]) for i in range(e + 1)),
                   Fraction(0))

    total = level(0, [])
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral Heideman total for N={n}")
    return 2 * n - int(total)


def check_output(problems: list[str], got, ref: np.ndarray, n: int) -> float:
    """Append a problem unless ``got`` matches ``ref`` within tolerance(n);
    returns the max-abs error (inf when the shapes disagree)."""
    arr = np.asarray(got)
    if arr.shape != ref.shape:
        problems.append(f"N={n}: output shape {arr.shape} != {ref.shape}")
        return math.inf
    err = float(np.max(np.abs(arr - ref)))
    if not err < tolerance(n):  # also catches NaN
        problems.append(f"N={n}: error {err:.3g} >= {tolerance(n):g}")
    return err


def check_equal(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


@dataclass
class Tally:
    """Checked units attempted and failed, with their first problems."""

    attempted: int = 0
    failed: int = 0
    max_err: float = 0.0
    problems: list[str] = field(default_factory=list)
    # blocklength -> (real mults, real adds) measured for one real transform
    counts: dict[int, tuple[int, int]] = field(default_factory=dict)

    def record(self, problems: list[str], err: float = 0.0) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS_KEPT - len(self.problems)
            self.problems.extend(problems[:max(room, 0)])
        if not err <= self.max_err:
            self.max_err = err

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.max_err = max(self.max_err, other.max_err)
        room = MAX_PROBLEMS_KEPT - len(self.problems)
        self.problems.extend(other.problems[:max(room, 0)])
        self.counts.update(other.counts)

    def to_json(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "max_err": self.max_err, "problems": self.problems,
                "counts": {str(n): list(c) for n, c in self.counts.items()}}

    @classmethod
    def from_json(cls, doc: dict) -> "Tally":
        return cls(attempted=doc["attempted"], failed=doc["failed"],
                   max_err=doc["max_err"], problems=list(doc["problems"]),
                   counts={int(n): tuple(c) for n, c in doc["counts"].items()})
