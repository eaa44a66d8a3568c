"""Exact combinatorics of derangements in the wreath product C_r wr S_n.

Elements are words of letters zeta^e * s; a derangement has no position
fixed with a trivial twist.  The package counts them by independent
routes (closed formula, two recurrences, a transform, enumeration),
refines the counts by the joint major-index / exponent-sum distribution
and by weak excedances, certifies the real-rootedness, negativity, and
interlacing of the excedance polynomial families with Sturm chains, and
cross-checks every identity against exponential generating functions --
all over exact integer and rational arithmetic.

Import names from the modules (``counting``, ``wreath``, ``roots``, ...);
the package itself re-exports nothing.
"""

__version__ = "0.1.0"
