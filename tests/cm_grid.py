"""A digest of the one-prime CM values of y^2 = x^3 + k on a fixed grid.

For 16 values of k and every split prime p below 10^5, plus the first 50
split primes after 10^8, 10^10, 10^12 and 2^61 - 10^6, it records
count_points_cm_j0(k, p) and the coordinates of grossencharacter_j0(k, p)
wherever p does not divide 6k: 79,737 cases.  It prints the case count
and the sha256 of the values, and exits 1 when the digest differs from
the one below, which the grid had when the one-prime count still took
its own symbol and trace on bare integers.

    PYTHONPATH=src python3 tests/cm_grid.py
"""

import hashlib
import sys

from ecaliquot.arith import nextprime, primes_in_range
from ecaliquot.curves_mod_p import count_points_cm_j0, grossencharacter_j0

KS = (1, 2, 3, 5, 6, 7, -7, 12, 16, -432, 91, 7 * 251, 7 * 65537, 1000003,
      -131074, 2**5 * 3**4 * 7)
DIGEST = "016fd1a8f91fec32d011cb130eef0796d8125d8c25a81a4b030b064154c59bec"


def split_primes():
    primes = [p for p in primes_in_range(2, 10**5) if p % 3 == 1]
    for start in (10**8, 10**10, 10**12, 2**61 - 10**6):
        p, found = start, 0
        while found < 50:
            p = nextprime(p)
            if p % 3 == 1:
                primes.append(p)
                found += 1
    return primes


def main() -> int:
    h, cases = hashlib.sha256(), 0
    primes = split_primes()
    for k in KS:
        for p in primes:
            if (6 * k) % p:
                psi = grossencharacter_j0(k, p)
                h.update(f"{k},{p},{count_points_cm_j0(k, p)},{psi.a},{psi.b}\n".encode())
                cases += 1
    print(cases, h.hexdigest())
    return 0 if h.hexdigest() == DIGEST else 1


if __name__ == "__main__":
    sys.exit(main())
