"""The knowledge and curiosity lattices of the Gryphon GD model.

Section 2.1 of the paper defines, for every tick, a *knowledge* value and
a *curiosity* value.

Knowledge values form the lattice of Figure 2::

              E            (error: top, never reached in a correct run)
            /   \\
          D*     S
           \\   /
             F              <- wait, see below
          ...

Careful reading of the paper gives the following order (higher = more
knowledge). ``Q`` is the bottom (no knowledge).  ``D`` (data published at
this tick) and ``S`` (silence: nothing published, or filtered out en
route) are incomparable, one step above ``Q``.  ``F`` ("final" /
don't-care) is *above* both ``D*`` (data delivered everywhere downstream)
and ``S`` in the accumulation order used here: the paper says "any S or
D* tick is automatically lowered to F" by forgetting, and describes F as
the *greatest lower bound* of D* and S — i.e. F retains exactly the
information common to both ("no data message is needed downstream").
For the purpose of *accumulation* (least upper bound of old and new
values) we therefore order the lattice as::

                E
             /     \\
           D*       |
            |       |
            D       S
             \\     /
                Q

    with F placed as a separate "finalized" element satisfying
    lub(F, Q) = F,  lub(F, S) = F,  lub(F, D) = D*  (data that is known
    and known-not-needed), lub(F, D*) = D*, lub(F, F) = F.

In other words: combining knowledge that a tick is final with knowledge
that it carried data yields D* (published *and* no longer needed); two
contradictory data values at the same tick yield ``E``.  This matches the
operational rules in sections 2.1 and 3.1 of the paper: a correct system
never materializes E, D ticks may be finalized into D*/F once acked, and
silence and finality merge into finality.

Curiosity values are ``C`` (curious), ``N`` (neutral, the default) and
``A`` (anti-curious / acked), with the upstream consolidation rule that a
tick becomes A only when *all* downstream streams are A for it.
"""

from __future__ import annotations

import enum
from typing import Tuple

__all__ = ["K", "C", "k_lub", "KnowledgeConflictError"]


class KnowledgeConflictError(Exception):
    """Raised when knowledge accumulation would produce the error value E.

    A correct implementation never reaches E (paper section 2.1); reaching
    it means two different data messages were assigned the same tick, or
    data was combined with a contradictory silence claim.  We surface this
    loudly instead of silently storing E.
    """


class K(enum.IntEnum):
    """Knowledge value of a tick.

    The integer values encode *rank* for cheap monotonicity checks; lattice
    joins go through :func:`k_lub`, not ``max``, because D and S (and D*
    and F) are incomparable or specially related.
    """

    #: No knowledge about this tick.
    Q = 0
    #: A data message was published at this tick (payload travels alongside).
    D = 2
    #: Silence: no message at this tick, or it was filtered out upstream.
    S = 1
    #: Final / don't-care: no data is needed downstream for this tick.
    F = 3
    #: Published and fully delivered downstream; no longer needed.
    DSTAR = 4
    #: Error: must never be materialized.
    E = 5

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class C(enum.IntEnum):
    """Curiosity value of a tick."""

    #: Anti-curious / acknowledged: no downstream subscriber needs this tick.
    A = 0
    #: Neutral (default): knowledge may be sent but need not be re-sent.
    N = 1
    #: Curious: some downstream subscriber urgently needs this tick's knowledge.
    C = 2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


# Least-upper-bound table for knowledge accumulation.  Symmetric by
# construction (we canonicalize the argument order below).
_LUB: dict = {
    (K.Q, K.Q): K.Q,
    (K.Q, K.S): K.S,
    (K.Q, K.D): K.D,
    (K.Q, K.F): K.F,
    (K.Q, K.DSTAR): K.DSTAR,
    (K.S, K.S): K.S,
    (K.S, K.D): K.E,  # contradictory: silence vs data at the same tick
    (K.S, K.F): K.F,
    (K.S, K.DSTAR): K.E,
    (K.D, K.D): K.D,  # same tick, same data (callers verify payload equality)
    (K.D, K.F): K.DSTAR,  # data + known-not-needed => delivered-everywhere
    (K.D, K.DSTAR): K.DSTAR,
    (K.F, K.F): K.F,
    (K.F, K.DSTAR): K.DSTAR,
    (K.DSTAR, K.DSTAR): K.DSTAR,
}


def k_lub(a: K, b: K) -> K:
    """Least upper bound of two knowledge values (knowledge accumulation).

    Raises :class:`KnowledgeConflictError` when the join is the error
    element E — i.e. when silence and data are asserted for the same tick.
    A tick that is S at one stream and D at another *upstream-downstream*
    pair is normal (the filter turned D into F/S for a non-matching path),
    but a single stream must never accumulate both.
    """
    if a == K.E or b == K.E:
        raise KnowledgeConflictError(f"error element in join: {a!r} | {b!r}")
    key: Tuple[K, K] = (a, b) if (a, b) in _LUB else (b, a)
    result = _LUB[key]
    if result == K.E:
        raise KnowledgeConflictError(f"conflicting knowledge: {a!r} | {b!r}")
    return result
