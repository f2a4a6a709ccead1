"""Time the padded product transforms at the old and the new padded length.

    python3 scripts/fft_lengths.py [--rounds R] [--caps]

For each band K in the table it times one synthesis and analysis pair as
spectral._padded_values and _band_coeffs form it: an inverse FFT of the
2K+1 band coefficients zero-padded to n points, then a forward FFT of the
n values.  It does so at two lengths n:

    old  the smallest n >= 2(2K+1) with no prime factor above 11
    new  Grid(K).n_padded: the smallest such n whose odd part is also at
         most spectral._ODD_PART_CAP

Each round times both lengths, alternating which goes first.  The table
gives each length's minimum over the rounds, in microseconds per pair, the
ratio new/old and the number of rounds in which the new length was the
faster.  K = 162 and 486 are the grids of acceptance criterion 5(a).

With --caps it then prints, for each cap of the odd part and for no cap
(the old rule), the sum over K = 8..1099 of the minimum time of one pair
at that cap's length: the figures the cap was chosen from.  A cap below 75
would move K = 18 off its 75 points, one of the CLI's grids, and a cap of
525 or more keeps 525 = 3*5^2*7 at K = 128.

It needs numpy and the standard library; `wavereg` comes from the src/
next to this script, read for the cap and to check that the rule spelled
here is the library's.  Rerun it when numpy changes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))

from wavereg.spectral import _ODD_PART_CAP, Grid  # noqa: E402

TABLE_K = (8, 10, 12, 16, 32, 64, 128, 162, 256, 486, 512, 1024)
SCAN_K = range(8, 1100)
SCAN_CAPS = (None, 75, 99, 128, 165, 245, 375, 524)


def padded_length(minimum: int, cap: int | None) -> int:
    """Smallest n >= minimum with no prime factor above 11 whose odd part is
    at most cap (any odd part when cap is None)."""
    n = minimum
    while True:
        odd = n
        while odd % 2 == 0:
            odd //= 2
        rest = odd
        for p in (3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1 and (cap is None or odd <= cap):
            return n
        n += 1


def factors(n: int) -> str:
    parts, p = [], 2
    while n > 1:
        power = 0
        while n % p == 0:
            n //= p
            power += 1
        if power:
            parts.append(f"{p}^{power}" if power > 1 else str(p))
        p += 1
    return "*".join(parts)


def pair_seconds(coeffs: np.ndarray, n: int, repeats: int) -> float:
    """Mean time of one synthesis + analysis pair on n points."""
    start = time.perf_counter()
    for _ in range(repeats):
        values = np.fft.ifft(coeffs, n=n, norm="forward")
        np.fft.fft(values, norm="forward")
    return (time.perf_counter() - start) / repeats


def timings(cases: list[tuple[int, int]], rounds: int) -> dict[int, list[float]]:
    """Per length n of the (band K, n) cases, its time per pair in each
    round, in microseconds; the cases run in turn, forwards in even rounds
    and backwards in odd ones."""
    rng = np.random.default_rng(1)
    data = {n: rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
            for K, n in cases}
    times: dict[int, list[float]] = {n: [] for _, n in cases}
    for r in range(rounds):
        for _, n in cases if r % 2 == 0 else cases[::-1]:
            times[n].append(1e6 * pair_seconds(data[n], n, max(20, 40_000 // n)))
    return times


def table(rounds: int) -> None:
    print(f"numpy {np.__version__}, {rounds} rounds, odd-part cap {_ODD_PART_CAP}; "
          "microseconds per synthesis + analysis pair, minimum over the rounds")
    print(f"{'K':>5} {'old':>5} {'factors':<12} {'new':>5} {'factors':<12} "
          f"{'old_us':>8} {'new_us':>8} {'new/old':>8} {'new faster':>11}")
    for K in TABLE_K:
        old = padded_length(2 * (2 * K + 1), None)
        new = Grid(K).n_padded
        if new != padded_length(2 * (2 * K + 1), _ODD_PART_CAP):
            raise SystemExit(f"the rule here disagrees with Grid({K}).n_padded = {new}")
        times = timings([(K, old), (K, new)] if new != old else [(K, old)], rounds)
        t_old, t_new = min(times[old]), min(times[new])
        wins = "-" if new == old else f"{sum(b < a for a, b in zip(times[old], times[new]))}/{rounds}"
        print(f"{K:>5} {old:>5} {factors(old):<12} {new:>5} {factors(new):<12} "
              f"{t_old:>8.2f} {t_new:>8.2f} {t_new / t_old:>8.3f} {wins:>11}")


def cap_scan(rounds: int) -> None:
    lengths = {cap: [padded_length(2 * (2 * K + 1), cap) for K in SCAN_K] for cap in SCAN_CAPS}
    distinct = sorted({n for row in lengths.values() for n in row})
    # each length with the widest band it pads, K = (n - 2) // 4
    times = timings([((n - 2) // 4, n) for n in distinct], rounds)
    best = {n: min(row) for n, row in times.items()}
    base = sum(best[n] for n in lengths[_ODD_PART_CAP])
    print(f"\nsum over K = {SCAN_K.start}..{SCAN_K.stop - 1} of one pair's minimum time "
          f"({len(distinct)} distinct lengths, {rounds} rounds each)")
    print(f"{'cap':>5} {'sum_us':>10} {'vs ' + str(_ODD_PART_CAP):>8}")
    for cap in SCAN_CAPS:
        total = sum(best[n] for n in lengths[cap])
        print(f"{'none' if cap is None else cap:>5} {total:>10.0f} {total / base:>8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=21, help="timing rounds (default 21)")
    parser.add_argument("--caps", action="store_true", help="also sum the times per odd-part cap")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    table(args.rounds)
    if args.caps:
        cap_scan(max(1, args.rounds // 4))
    return 0


if __name__ == "__main__":
    sys.exit(main())
