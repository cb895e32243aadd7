"""Codebook synthesis: continuous-optimal phases, quantization, the exact optimiser, the oracle.

The power-maximizing element phase is 2 pi (d^t + d^r) / lambda (mod 2 pi),
with d^t and d^r the exact distances from each element to the two endpoints
(the per-element cascade of Tang et al., IEEE TWC 2021). Distances enter
relative to the panel-center path, so a broadside pair maps to phase 0 at
the center; a constant added to every element cancels in the received power.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import _path_vector
from .codebook import TWO_PI, quantize_phases
from .elements import ElementStateTable, nominal_phase_step, state_coefficients
from .errors import SearchSpaceError
from .geometry import ArrayGeometry, Pose, exact_distances
from .units import wavelength

ORACLE_SEARCH_CAP = 1 << 20


def optimal_phases(tx: Pose, rx: Pose, geom: ArrayGeometry, carrier_hz: float) -> np.ndarray:
    """(Nx, Ny) grid of continuous power-maximizing phases in [0, 2 pi)."""
    lam = wavelength(carrier_hz)
    dt = exact_distances(tx, geom) - tx.range
    dr = exact_distances(rx, geom) - rx.range
    return (TWO_PI * (dt + dr) / lam) % TWO_PI


def synthesize_codebook(
    tx: Pose, rx: Pose, geom: ArrayGeometry, carrier_hz: float, bits: int
) -> np.ndarray:
    """(Nx, Ny) int64 grid of b-bit codes: the continuous-optimal phases, quantized."""
    return quantize_phases(optimal_phases(tx, rx, geom, carrier_hz), bits)


def _hull_codes(lut: np.ndarray) -> np.ndarray:
    """Codes of the convex-hull vertices of the state coefficients, counter-clockwise.

    Andrew's monotone chain. States inside the hull or on one of its edges
    are dropped, and of equal coefficients the lowest code is kept.
    """
    distinct: dict[complex, int] = {}
    for code, value in enumerate(lut):
        distinct.setdefault(complex(value), code)
    points = sorted(distinct, key=lambda z: (z.real, z.imag))

    def chain(ordered: list[complex]) -> list[complex]:
        kept: list[complex] = []
        for z in ordered:
            while len(kept) >= 2 and ((kept[-1] - kept[-2]).conjugate() * (z - kept[-2])).imag <= 0:
                kept.pop()
            kept.append(z)
        return kept[:-1]

    return np.array([distinct[z] for z in chain(points) + chain(points[::-1]) or points])


def optimal_codebook(
    tx: Pose,
    rx: Pose,
    geom: ArrayGeometry,
    carrier_hz: float,
    table: ElementStateTable,
) -> tuple[np.ndarray, float]:
    """Exact argmax of received power over all code grids, and the squared sum it maximizes.

    The grid is an (Nx, Ny) int64 array of ``table``'s codes. Maximizes
    |sum_i a_i lut[c_i]|^2 (m^-4) with a_i the cascade path term
    of element i and lut the coefficients of ``table``'s states, as
    :func:`exhaustive_oracle` does, in O(N H log NH) for H convex-hull
    vertices of the state table (Sanchez, Bjornson and Larsson, ICASSP 2022;
    Zhang, Shen, Ren et al., IEEE JSTSP 2022). For a direction psi of the
    sum, each element takes the hull vertex that projects furthest onto psi;
    as psi turns once round, element i moves to the next vertex at arg(a_i)
    plus each hull edge's outward-normal angle. The optimal grid is the grid
    of one of the arcs between these events. Events at equal angles fire
    together: a grid between two of them lies on no arc.
    """
    lut = state_coefficients(table, np.arange(1 << table.bits))
    path = _path_vector(carrier_hz, geom, tx, rx).reshape(-1)
    hull = _hull_codes(lut)
    vertex = np.zeros(path.size, dtype=np.int64)  # hull index per element
    if hull.size > 1:
        corners = lut[hull]
        edges = np.roll(corners, -1) - corners  # edge h runs from vertex h to h + 1
        events = np.mod(np.angle(path)[:, None] + np.angle(edges) - math.pi / 2, TWO_PI)
        # at psi = 0 each element sits where its last event of the turn left it
        vertex = (np.argmax(events, axis=1) + 1) % hull.size
        order = np.argsort(events, axis=None, kind="stable")
        angles = events.reshape(-1)[order]
        sums = path @ corners[vertex] + np.cumsum((path[:, None] * edges).reshape(-1)[order])
        arcs = np.flatnonzero(np.append(angles[1:] != angles[:-1], True))
        best = arcs[np.argmax(np.abs(sums[arcs]))]
        element, edge = np.divmod(order[: best + 1], hull.size)
        vertex[element] = (edge + 1) % hull.size  # in event order, so the last event wins
    codes = hull[vertex]
    return codes.reshape(geom.num_x, geom.num_y), float(abs(np.sum(lut[codes] * path))) ** 2


def exhaustive_oracle(
    tx: Pose,
    rx: Pose,
    geom: ArrayGeometry,
    carrier_hz: float,
    table: ElementStateTable,
) -> tuple[np.ndarray, float]:
    """Brute-force argmax of received power over all code grids, and the squared sum it maximizes.

    Maximizes |sum_i a_i lut[c_i]|^2 as :func:`optimal_codebook` does, reading
    codes against ``table``, and returns its grid the same way. Enumerates
    lexicographically with element (0, 0) as the most significant digit, so
    argmax ties resolve to the lexicographically smallest grid.
    """
    n = geom.num_elements
    n_states = 1 << table.bits
    total_configs = n_states**n
    if total_configs > ORACLE_SEARCH_CAP:
        raise SearchSpaceError(
            f"{n_states}^{n} code grids exceed the {ORACLE_SEARCH_CAP} search cap"
        )
    path = _path_vector(carrier_hz, geom, tx, rx).reshape(-1)
    lut = state_coefficients(table, np.arange(n_states))
    # enumerate all grids: digit i of each config index selects element i's code
    field = np.zeros(total_configs, dtype=complex)
    idx = np.arange(total_configs)
    for i in range(n):
        digit = (idx // (n_states ** (n - 1 - i))) % n_states
        field += lut[digit] * path[i]
    best = int(np.argmax(np.abs(field)))
    codes = np.array(
        [(best // (n_states ** (n - 1 - i))) % n_states for i in range(n)]
    ).reshape(geom.num_x, geom.num_y)
    return codes, float(np.abs(field[best])) ** 2


def quantization_loss(geom: ArrayGeometry, tx: Pose, rx: Pose, carrier_hz: float,
                      bits: int) -> float:
    """Power lost to b-bit phasing, in dB, for the best b-bit code grid.

    Ratio of the fully coherent (continuous-phase) power (sum |a_i|)^2 to
    the squared sum of the :func:`optimal_codebook` grid, with a_i the
    cascade path terms and ideal unit element magnitude. The link's power
    scale cancels, so the result depends only on geometry and the phase grid.
    """
    _, best = optimal_codebook(tx, rx, geom, carrier_hz, ElementStateTable.ideal(bits))
    bound = float(np.sum(np.abs(_path_vector(carrier_hz, geom, tx, rx)))) ** 2
    return 10.0 * math.log10(bound / best)


def uniform_phase_loss_db(bits: int) -> float:
    """Closed-form b-bit loss when phase errors are uniform over one quantizer cell.

    -20 log10(sin(x) / x) with x = pi / 2^b, the half-width of the cell;
    0.912 dB at b = 2.
    """
    x = nominal_phase_step(bits) / 2.0
    return -20.0 * math.log10(math.sin(x) / x)
