"""Brute-force SLOCC oracle: constructive product-decomposition search.

Independent of bhqc: it reads kets through ``_exact`` and computes on
``bench/exact.py``'s scalars (ints where they can be, else ``Q``), not with
bhqc.classifier's rank/hyperdeterminant table.  A party is separable iff an
explicit factorization a[b][rest] = u[b] * chi[rest] can be constructed and
verified entrywise.  Only the GHZ/W split reuses
Cayley's polynomial (by its sign test), as there is no cheaper exact
discriminator.
"""

from _exact import ONE, vector


def _rows(vec, n, party):
    shift = n - 1 - party
    rows = ([], [])
    for idx, v in enumerate(vec):
        rows[(idx >> shift) & 1].append(v)
    return rows


def _party_separates(vec, n, party) -> bool:
    """Try to construct vec = u (x) chi along ``party`` and verify it."""
    row0, row1 = _rows(vec, n, party)
    if not any(row0):
        return True  # u = (0, 1), chi = row1
    if not any(row1):
        return True  # u = (1, 0), chi = row0
    pivot = next(j for j, v in enumerate(row0) if v)
    t = row1[pivot] * (ONE * row0[pivot]).inverse()  # ONE * makes an int entry a Q
    return all(v * t == w for v, w in zip(row0, row1))


def _cayley_det(a):
    sq = sum(a[p] * a[p] * a[7 - p] * a[7 - p] for p in (0b000, 0b001, 0b010, 0b100))
    pairs = (a[0b000] * a[0b001] * a[0b110] * a[0b111]
             + a[0b000] * a[0b010] * a[0b101] * a[0b111]
             + a[0b000] * a[0b100] * a[0b011] * a[0b111]
             + a[0b001] * a[0b010] * a[0b101] * a[0b110]
             + a[0b001] * a[0b100] * a[0b011] * a[0b110]
             + a[0b010] * a[0b100] * a[0b011] * a[0b101])
    quads = (a[0b000] * a[0b011] * a[0b101] * a[0b110]
             + a[0b001] * a[0b010] * a[0b100] * a[0b111])
    return sq - 2 * pairs + 4 * quads


def brute_classify(state) -> tuple[str, str | None]:
    """(class family, separated party) of a 2- or 3-qubit bhqc ket, by
    explicit decomposition search."""
    polys = vector(state)
    assert all(set(p) <= {()} for p in polys), "formal symbols"
    vec = [p.get((), 0) for p in polys]
    if not any(vec):
        return "NULL", None
    if state.n_qubits == 2:
        return "SEPARABLE" if _party_separates(vec, 2, 0) else "ENTANGLED", None
    separating = [p for p in range(3) if _party_separates(vec, 3, p)]
    assert len(separating) in (0, 1, 3), separating
    if len(separating) == 3:
        return "SEPARABLE", None
    if len(separating) == 1:
        return "BISEPARABLE", "ABC"[separating[0]]
    if _cayley_det(vec):
        return "GHZ", None
    return "W", None
