"""Exact two-port network algebra on a frequency axis.

Representation conversions (S, Z, ABCD with real, possibly unequal
reference impedances), cascading, and reflection coefficients.  All
operations are pure functions on immutable value objects; ABCD is the
canonical form for cascading and S the canonical form for reporting.

The frequency axis.  The stages a sweep runs (``coil.coil_abcd``, the
tissue ladder, the matching-network link, :func:`abcd_chain`,
:func:`abcd_to_s`, :func:`s_to_abcd`, ``efficiency.pte_max`` and
``NetworkTable.at``) take either one frequency or a float64 ``(F,)``
array of them, and return one :class:`TwoPortMatrix` whose entries are
complex numbers or read-only complex ``(F,)`` arrays.  A sweep therefore
runs each stage once over all its points, and the matrix is validated
once, in ``TwoPortMatrix.__post_init__``, over the whole array; a
non-finite intermediate stays non-finite through the products, so it
still raises at the stage result, naming the first point at which any
entry fails.

The CPython-order rule.  Every value a stage computes must equal, bit
for bit, what Python's complex arithmetic gives at each point, so that
reports and sweep files keep every byte.  Each formula is therefore
written once, with Python's operators, and runs on Python numbers at one
frequency and on :class:`Split` values along an axis:

- A :class:`Split` holds the real and imaginary float64 arrays of a
  complex quantity.  It multiplies as CPython's ``_Py_c_prod`` does and
  divides as ``_Py_c_quot`` does (Smith's method, its branches taken per
  point with :func:`where`); sums and differences are ``_Py_c_sum`` and
  ``_Py_c_diff`` (CPython ``Objects/complexobject.c``, 3.10-3.12).
- A real operand is promoted as CPython promotes it, to ``(x, +0.0)``,
  which decides signed zeros.  A real array meets a Python complex
  number only through :func:`promote`, and a matrix entry array becomes
  an operand through :func:`lift`.
- Expressions keep Python's association: left to right, a chain starts
  from the identity and takes one factor at a time.
- A complex power has one form, :func:`jpow`, for the purely imaginary
  bases of the Cole-Cole terms: at one frequency it is Python's ``**``,
  and along an axis it runs CPython's ``complex_pow`` for such a base
  with a constant phase, calling libm ``pow`` per point.  Such libm calls
  (``pow``, ``log10``) run through ``map`` in C, never a frame per point.
- At one frequency the operands are Python floats and complex numbers,
  so a single-frequency caller runs the same lines at Python's own
  speed and pays no numpy per-call cost.

The tissue ladder's long chain runs along an axis in
:func:`abcd_chain_along`, which keeps the bits of :func:`abcd_chain` for
three reasons.  A step makes the same element-wise float64 operations
as ``a * e + b * g``, in the same order: the four products and the
difference and sum of ``_Py_c_prod``, then the sum of the two products.
Only their layout changes: all entries sit in one stacked buffer per
operand.  The axis is cut into blocks, and these are independent,
because every operation acts on one point.  And no complex ufunc,
``@``, ``einsum`` or BLAS call runs, whose operation order and fused
multiply-adds differ from CPython's.  A NaN keeps its place, though not
always its sign or payload: x86 passes on an operand's NaN, and numpy's
loops for different array lengths may order a commutative operation's
operands differently.  No output depends on either.

numpy's own complex ufuncs are not used on this path: its complex
product differs from CPython's in the last bit for about a quarter of
random operands (and ``@`` on stacked 2x2 matrices for most).  Nor are
``np.log10`` and ``np.power``, which may run vectorised library kernels
that differ from libm's ``log10`` and ``pow``.  A square is ``x * x``,
never ``x ** 2``.  ``np.hypot`` and ``np.sqrt`` are the libm ``hypot``
and the correctly rounded square root that ``abs`` of a complex number
and ``math.sqrt`` use.  ``tests/test_chain.py`` checks these identities
on random, signed-zero, subnormal and huge operands.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .errors import DegenerateNetworkError

# Denominators below this magnitude are treated as singular instead of
# silently overflowing into Inf.
_DENOM_FLOOR = 1e-300

# Largest |S12 - S21|, relative to max(|S12|, |S21|), at which S data counts
# as reciprocal: in an imported table and in the matrix extraction reads.
RECIPROCITY_TOL = 1e-3


# (A, B, C, D) or (S11, S12, S21, S22): complex numbers, or Split values
# along an axis.
Entries = tuple

# (A, B, C, D) of the identity two-port as abcd_matrix stores it: complex
# entries, so a chain multiplies complex by complex throughout.
IDENTITY = (1 + 0j, 0j, 0j, 1 + 0j)


# The frequencies the stages accept: below the smallest normal float the
# angular frequency underflows in the products that divide by it, and
# above F_MAX the angular frequency 2 pi f overflows.
F_MIN = sys.float_info.min
F_MAX = sys.float_info.max / (2.0 * math.pi)


# -- the frequency axis --------------------------------------------------------


def on_axis(x) -> bool:
    """True when ``x`` is an array with one value per frequency point."""
    return isinstance(x, np.ndarray)


def _carries_axis(arg) -> bool:
    return isinstance(arg.m11 if isinstance(arg, TwoPortMatrix) else arg, np.ndarray)


def quiet(fn):
    """Run a stage on an axis with numpy's floating-point warnings off:
    there an overflow or a 0/0 is a value (inf or nan), as Python's
    complex arithmetic leaves it at one point, and the stage result's
    finiteness check reports it.  A call at one frequency runs as it is."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        if not any(map(_carries_axis, args)):
            return fn(*args, **kwargs)
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)
    return run


def where(cond, x, y):
    """``x`` where ``cond`` holds, else ``y``, point by point."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _parts(x) -> tuple:
    """(re, im) of an operand; a real one is promoted to (x, +0.0)."""
    if isinstance(x, (Split, complex)):
        return x.real, x.imag
    return x, 0.0


class Split:
    """A complex quantity along a frequency axis, as real and imaginary
    float64 arrays, whose operators give at each point the bits of
    Python's complex arithmetic.  The other operand may be a Python
    number, a real array or a Split; a zero divisor gives nan where
    CPython raises."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # a real array on the left defers to the reflected operators
    __hash__ = None

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        br, bi = _parts(other)
        return Split(self.real + br, self.imag + bi)

    def __radd__(self, other):
        ar, ai = _parts(other)
        return Split(ar + self.real, ai + self.imag)

    def __sub__(self, other):
        br, bi = _parts(other)
        return Split(self.real - br, self.imag - bi)

    def __rsub__(self, other):
        ar, ai = _parts(other)
        return Split(ar - self.real, ai - self.imag)

    def __mul__(self, other):
        return _prod(self.real, self.imag, *_parts(other))

    def __rmul__(self, other):
        return _prod(*_parts(other), self.real, self.imag)

    def __truediv__(self, other):
        return _quot(self.real, self.imag, *_parts(other))

    def __rtruediv__(self, other):
        return _quot(*_parts(other), self.real, self.imag)

    def __neg__(self):
        return Split(-self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    def __eq__(self, other):
        br, bi = _parts(other)
        return (self.real == br) & (self.imag == bi)


def _prod(ar, ai, br, bi) -> Split:
    # _Py_c_prod
    return Split(ar * br - ai * bi, ar * bi + ai * br)


def _quot(ar, ai, br, bi) -> Split:
    # _Py_c_quot.  With p the part of the divisor of larger magnitude and q
    # the other, its two branches share one denominator, as IEEE addition
    # commutes.
    first = abs(br) >= abs(bi)
    p, q = where(first, br, bi), where(first, bi, br)
    try:
        ratio = q / p
    except ZeroDivisionError:
        return Split(math.nan, math.nan)
    den = p + q * ratio
    return Split(where(first, ar + ai * ratio, ar * ratio + ai) / den,
                 where(first, ai - ar * ratio, ai * ratio - ar) / den)


# Entry types that put a matrix on an axis.
_AXIS_TYPES = frozenset((Split, np.ndarray))


def promote(x):
    """A real operand of complex arithmetic: a real array becomes a Split
    with +0.0 imaginary parts, as CPython promotes a float; a number is
    returned as it is, for Python to promote."""
    return Split(x, 0.0) if isinstance(x, np.ndarray) else x


def lift(z):
    """A complex array as a Split operand; a number as it is."""
    return Split(z.real, z.imag) if isinstance(z, np.ndarray) else z


def join(re, im):
    """Complex number or complex array from real and imaginary parts."""
    if on_axis(re) or on_axis(im):
        out = np.empty(np.broadcast(re, im).shape, dtype=complex)
        out.real = re
        out.imag = im
        return out
    return complex(re, im)


def square(x):
    """``x * x`` of a float or an array: correctly rounded, inf where it
    overflows."""
    return x * x


# The argument of ``1j * x`` for x >= 0: CPython's ``atan2(x, +0.0)``.
_HALF_PI = math.atan2(1.0, 0.0)


def jpow(x, e):
    """``(1j * x) ** e`` for x >= 0 and 0 < e <= 1, as CPython computes it.

    Along an axis only libm ``pow`` runs per point, as ``math.pow`` (here
    float ``**``, also at 0 and inf).  For this base ``complex_pow`` takes
    one of two paths: e == 1 is ``c_powi``, the product ``1 * (1j * x)``,
    which is ``(+0.0, x)``; any other e is ``_Py_c_pow`` with
    ``hypot(+0.0, x) = x`` and argument pi/2, so the result is
    ``x ** e * (cos(phi), sin(phi))`` with the constant phase phi = (pi/2) e.
    inf where x is inf, where CPython raises OverflowError."""
    if not on_axis(x):
        return (1j * x) ** e
    if e == 1.0:
        return Split(np.zeros_like(x), x)
    phi = _HALF_PI * e
    size = np.fromiter(map(math.pow, x.tolist(), repeat(e)), float, x.size)
    return Split(size * math.cos(phi), size * math.sin(phi))


def sqrt(x):
    """Correctly rounded square root of a float or an array."""
    return np.sqrt(x) if on_axis(x) else math.sqrt(x)


def first_point(cond) -> int | None:
    """Index of the first point at which ``cond`` holds, or None."""
    if isinstance(cond, np.ndarray):
        return int(cond.argmax()) if cond.any() else None
    return 0 if cond else None


def point(x, i: int):
    """Value of ``x`` at point ``i``."""
    if isinstance(x, Split):
        return complex(x.real[i], x.imag[i])
    return x[i] if on_axis(x) else x


def check_frequency(f):
    """``f``, a frequency or an array of them, each in [F_MIN, F_MAX];
    else ValueError naming the first offending value."""
    i = first_point(~((f >= F_MIN) & (f <= F_MAX)) if on_axis(f) else not F_MIN <= f <= F_MAX)
    if i is not None:
        raise ValueError(f"frequency must be in [{F_MIN:g}, {F_MAX:g}] Hz, "
                         f"got {float(point(f, i))!r}")
    return f


# -- matrices ----------------------------------------------------------------


class Representation(Enum):
    S = "S"
    Z = "Z"
    ABCD = "ABCD"


class PointError(ValueError):
    """A value fails validation at point ``index`` of a frequency axis."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _require_finite(name: str, value: complex) -> complex:
    value = complex(value)
    if not (cmath.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class TwoPortMatrix:
    """Complex 2x2 network in S, Z or ABCD form, at one frequency (complex
    entries) or along a frequency axis (read-only complex ``(F,)`` entry
    arrays, built from arrays or :class:`Split` values).

    ``zp1``/``zp2`` are the real reference impedances of port 1 and 2.
    They are mandatory for S matrices and optional bookkeeping for the
    others.
    """

    representation: Representation
    m11: complex
    m12: complex
    m21: complex
    m22: complex
    zp1: float | None = None
    zp2: float | None = None

    def __post_init__(self):
        values = (self.m11, self.m12, self.m21, self.m22)
        if not _AXIS_TYPES.isdisjoint(map(type, values)):
            arrays = np.broadcast_arrays(*(join(v.real, v.imag) if isinstance(v, Split)
                                           else np.asarray(v, dtype=complex) for v in values))
            if arrays[0].ndim != 1:
                raise ValueError("matrix entries must be numbers or (F,) arrays")
            i = first_point(~functools.reduce(np.logical_and, map(np.isfinite, arrays)))
            for name, entries in zip(("m11", "m12", "m21", "m22"), arrays):
                if i is not None and not cmath.isfinite(entries[i]):
                    raise PointError(i, f"{name} must be finite, got {complex(entries[i])!r}")
                entries = entries.copy()
                entries.flags.writeable = False
                object.__setattr__(self, name, entries)
        else:
            for name in ("m11", "m12", "m21", "m22"):
                object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        for name in ("zp1", "zp2"):
            zp = getattr(self, name)
            if zp is not None:
                zp = float(zp)
                if not zp > 0.0:
                    raise ValueError(f"{name} must be > 0, got {zp}")
                object.__setattr__(self, name, zp)
        if self.representation is Representation.S and (self.zp1 is None or self.zp2 is None):
            raise ValueError("S-parameter matrices require zp1 and zp2")

    @property
    def entries(self) -> Entries:
        return (self.m11, self.m12, self.m21, self.m22)

    @property
    def operands(self) -> Entries:
        """The entries as operands of the stage formulas (see :func:`lift`)."""
        return tuple(map(lift, self.entries))

    @property
    def det(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    def _expect(self, rep: Representation) -> None:
        if self.representation is not rep:
            raise ValueError(f"expected {rep.value} matrix, got {self.representation.value}")


def s_matrix(s11: complex, s12: complex, s21: complex, s22: complex,
             zp1: float, zp2: float) -> TwoPortMatrix:
    return TwoPortMatrix(Representation.S, s11, s12, s21, s22, zp1, zp2)


def z_matrix(z11: complex, z12: complex, z21: complex, z22: complex) -> TwoPortMatrix:
    return TwoPortMatrix(Representation.Z, z11, z12, z21, z22)


def abcd_matrix(a: complex, b: complex, c: complex, d: complex) -> TwoPortMatrix:
    return TwoPortMatrix(Representation.ABCD, a, b, c, d)


def _guard_denominator(value: complex, context: str) -> complex:
    i = first_point(abs(value) < _DENOM_FLOOR)
    if i is not None:
        raise DegenerateNetworkError(
            f"singular denominator in {context}: |{point(value, i)!r}| < 1e-300")
    return value


def z_to_s(net: TwoPortMatrix, zp1: float, zp2: float) -> TwoPortMatrix:
    """Convert a Z matrix to S for real reference impedances zp1, zp2.

    S11 = ((Z11-zp1)(Z22+zp2) - Z12 Z21) / dZ,
    S21 = 2 Z21 sqrt(zp1 zp2) / dZ (S12 likewise), with
    dZ = (Z11+zp1)(Z22+zp2) - Z12 Z21.
    """
    net._expect(Representation.Z)
    if not (zp1 > 0 and zp2 > 0):
        raise ValueError("reference impedances must be > 0")
    z11, z12, z21, z22 = net.m11, net.m12, net.m21, net.m22
    dz = _guard_denominator((z11 + zp1) * (z22 + zp2) - z12 * z21, "z_to_s")
    root = (zp1 * zp2) ** 0.5
    return s_matrix(
        ((z11 - zp1) * (z22 + zp2) - z12 * z21) / dz,
        2.0 * z12 * root / dz,
        2.0 * z21 * root / dz,
        ((z11 + zp1) * (z22 - zp2) - z12 * z21) / dz,
        zp1, zp2,
    )


def s_to_z(net: TwoPortMatrix) -> TwoPortMatrix:
    """Inverse of :func:`z_to_s`, using the stored reference impedances."""
    net._expect(Representation.S)
    s11, s12, s21, s22 = net.m11, net.m12, net.m21, net.m22
    zp1, zp2 = net.zp1, net.zp2
    ds = _guard_denominator((1.0 - s11) * (1.0 - s22) - s12 * s21, "s_to_z")
    root = (zp1 * zp2) ** 0.5
    return z_matrix(
        zp1 * ((1.0 + s11) * (1.0 - s22) + s12 * s21) / ds,
        2.0 * s12 * root / ds,
        2.0 * s21 * root / ds,
        zp2 * ((1.0 - s11) * (1.0 + s22) + s12 * s21) / ds,
    )


@quiet
def abcd_to_s(net: TwoPortMatrix, zp1: float, zp2: float) -> TwoPortMatrix:
    """Convert ABCD to S for real reference impedances zp1, zp2, at one
    frequency or along an axis."""
    net._expect(Representation.ABCD)
    if not (zp1 > 0 and zp2 > 0):
        raise ValueError("reference impedances must be > 0")
    return s_matrix(*abcd_entries_to_s(*net.operands, zp1, zp2), zp1, zp2)


def abcd_entries_to_s(a, b, c, d, zp1: float, zp2: float) -> Entries:
    """(S11, S12, S21, S22) of ABCD operands for real reference impedances
    zp1, zp2, unvalidated: the formula of :func:`abcd_to_s`."""
    den = _guard_denominator(a * zp2 + b + c * zp1 * zp2 + d * zp1, "abcd_to_s")
    root = (zp1 * zp2) ** 0.5
    return (
        (a * zp2 + b - c * zp1 * zp2 - d * zp1) / den,
        2.0 * (a * d - b * c) * root / den,
        2.0 * root / den,
        (-a * zp2 + b - c * zp1 * zp2 + d * zp1) / den,
    )


@quiet
def s_to_abcd(net: TwoPortMatrix) -> TwoPortMatrix:
    """Convert S (with stored zp1, zp2) to ABCD, at one frequency or along
    an axis.

    Requires a transmitting network; for reciprocal data (S12 = S21)
    this matches the unequal-reference-impedance transmission formulas.
    """
    net._expect(Representation.S)
    s11, s12, s21, s22 = net.operands
    if first_point((abs(s12) < _DENOM_FLOOR) | (abs(s21) < _DENOM_FLOOR)) is not None:
        raise DegenerateNetworkError("s_to_abcd: no transmission (S12 or S21 is zero)")
    zp1, zp2 = net.zp1, net.zp2
    den = 2.0 * s21
    x = s12 * s21
    p, q = 1.0 + s11, 1.0 - s11
    u, v = 1.0 + s22, 1.0 - s22
    root = (zp1 * zp2) ** 0.5
    return abcd_matrix(
        (p * v + x) / den * (zp1 / zp2) ** 0.5,
        (p * u - x) / den * root,
        (q * v - x) / den / root,
        (q * u + x) / den * (zp2 / zp1) ** 0.5,
    )


def z_to_abcd(net: TwoPortMatrix) -> TwoPortMatrix:
    net._expect(Representation.Z)
    z11, z12, z21, z22 = net.m11, net.m12, net.m21, net.m22
    z21 = _guard_denominator(z21, "z_to_abcd")
    return abcd_matrix(z11 / z21, (z11 * z22 - z12 * z21) / z21, 1.0 / z21, z22 / z21)


def abcd_to_z(net: TwoPortMatrix) -> TwoPortMatrix:
    net._expect(Representation.ABCD)
    a, b, c, d = net.m11, net.m12, net.m21, net.m22
    c = _guard_denominator(c, "abcd_to_z")
    return z_matrix(a / c, (a * d - b * c) / c, 1.0 / c, d / c)


def abcd_chain(*factors: Entries) -> Entries:
    """Product of ABCD entry tuples (operands, see :func:`lift`), one factor
    at a time from the left: port 2 of each factor feeds port 1 of the
    next.  Nothing is validated here; wrap the result in
    :func:`abcd_matrix`."""
    a, b, c, d = factors[0]
    for e, f, g, h in factors[1:]:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return a, b, c, d


# Points per block of abcd_chain_along: a block's buffers (0.75 MiB) stay
# in cache, and a 1001-point sweep is one block.
CHAIN_BLOCK = 1024

# (row, column) of the entries A, B, C, D.
_ENTRY_AT = ((0, 0), (0, 1), (1, 0), (1, 1))


def abcd_chain_along(size: int, factors) -> Entries:
    """``abcd_chain(IDENTITY, *factors)`` along an axis of ``size`` points,
    bit for bit, for long chains such as the tissue ladder.  The factors'
    entries are numbers or Split values; the result's are Splits.

    The running product L and the factor R are stacked float64 buffers
    indexed (part, i, k, j, point): L[i, k] repeated over j and R[k, j]
    over i.  A step takes every product L[i, k] R[k, j] as ``_Py_c_prod``
    does, in six element-wise calls, sums them over k into the new
    product and copies that back into L.  R is refilled only when the
    factor object changes, as the ladder repeats each section tuple.  The
    axis runs in independent blocks of CHAIN_BLOCK points."""
    out = np.empty((2, 2, 2, size))  # (part, i, j, point)
    buffers = np.empty((3, 2, 2, 2, 2, min(size, CHAIN_BLOCK)))
    with np.errstate(all="ignore"):
        for start in range(0, size, CHAIN_BLOCK):
            stop = min(start + CHAIN_BLOCK, size)
            left, right, prod = buffers[..., :stop - start]
            (lr, li), (rr, ri), (pr, pi) = left, right, prod
            product = out[..., start:stop]
            for (i, j), z in zip(_ENTRY_AT, IDENTITY):
                product[:, i, j] = ((z.real,), (z.imag,))
            np.copyto(left, product[:, :, :, None])
            last = None
            for factor in factors:
                if factor is not last:
                    last = factor
                    for (k, j), x in zip(_ENTRY_AT, factor):
                        for buf, part in zip((rr, ri), _parts(x)):
                            buf[:, k, j] = part[start:stop] if on_axis(part) else part
                np.multiply(lr, rr, out=pr)
                np.multiply(li, ri, out=pi)
                np.subtract(pr, pi, out=pr)
                np.multiply(lr, ri, out=pi)
                np.multiply(li, rr, out=lr)  # the last read of L's real part was above
                np.add(pi, lr, out=pi)
                np.add(prod[:, :, 0], prod[:, :, 1], out=product)
                np.copyto(left, product[:, :, :, None])
    return tuple(Split(out[0, i, j], out[1, i, j]) for i, j in _ENTRY_AT)


@quiet
def cascade(a: TwoPortMatrix, b: TwoPortMatrix) -> TwoPortMatrix:
    """Chain two ABCD matrices: port 2 of ``a`` feeds port 1 of ``b``."""
    a._expect(Representation.ABCD)
    b._expect(Representation.ABCD)
    return abcd_matrix(*abcd_chain(a.operands, b.operands))


def input_reflection(s: TwoPortMatrix, gamma_load: complex) -> complex:
    """Reflection looking into port 1 with port 2 terminated by gamma_load.

    Gamma_in = S11 + S21^2 Gamma_L / (1 - S22 Gamma_L); the S21^2 form
    assumes a reciprocal network.
    """
    s._expect(Representation.S)
    gamma_load = complex(gamma_load)
    if abs(gamma_load) > 1.0 + 1e-12:
        raise ValueError(f"|gamma_load| must be <= 1, got {abs(gamma_load)}")
    den = _guard_denominator(1.0 - s.m22 * gamma_load, "input_reflection")
    return s.m11 + s.m21 * s.m21 * gamma_load / den


def reflection_of(z: complex, z0: float) -> complex:
    """Reflection coefficient of impedance z against real reference z0."""
    den = _guard_denominator(z + z0, "reflection_of")
    return (z - z0) / den


def impedance_of(gamma: complex, z0: float) -> complex:
    """Impedance corresponding to reflection coefficient gamma at z0."""
    den = _guard_denominator(1.0 - gamma, "impedance_of")
    return z0 * (1.0 + gamma) / den


# -- results built on read ------------------------------------------------------


class BuiltOnRead(Sequence):
    """A read-only sequence whose items ``build(*fields)`` makes from the
    i-th value of each of ``fields`` only when an index or slice reads
    item i; slices give tuples.  Two such sequences are equal when their
    items are, and hash as the tuple of their items."""

    def __init__(self, build, *fields):
        self._build = build
        self._fields = fields

    @property
    def fields(self) -> tuple:
        """The sequences the items are built from, one per argument of build."""
        return self._fields

    def __len__(self) -> int:
        return len(self._fields[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        return self._build(*(field[index] for field in self._fields))

    def __eq__(self, other):
        if not isinstance(other, BuiltOnRead):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))
