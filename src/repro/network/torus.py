"""3D torus topology: coordinates, dimension-order routes, hop counts."""

from __future__ import annotations

from array import array

from repro.params import NetworkParams

__all__ = ["Torus", "balanced_torus_shape"]


def balanced_torus_shape(num_pes: int) -> tuple[int, int, int]:
    """The most balanced ``(x, y, z)`` torus factorization of
    ``num_pes``, largest dimension first.

    Peels the prime factors of ``num_pes`` largest-first, each onto the
    currently smallest dimension — the shapes the real T3D shipped in
    (``16 -> (4, 2, 2)``, ``256 -> (8, 8, 4)``, ``1024 -> (16, 8, 8)``)
    fall out of powers of two, and non-powers still factor sensibly
    (``12 -> (3, 2, 2)``).  Every experiment and benchmark that sweeps
    machine size derives its shapes here instead of keeping its own
    table.
    """
    if num_pes < 1:
        raise ValueError(f"need at least one processor, got {num_pes}")
    factors = []
    n = num_pes
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    dims = [1, 1, 1]
    for factor in sorted(factors, reverse=True):
        dims.sort()
        dims[0] *= factor
    x, y, z = sorted(dims, reverse=True)
    return (x, y, z)


class Torus:
    """A 3-dimensional torus of processing nodes.

    Node numbering is row-major over ``(x, y, z)``.  Routing is
    dimension-order (X then Y then Z), each dimension taking the
    shorter way around the ring, as in the real machine.
    """

    def __init__(self, params: NetworkParams):
        self.params = params
        self.shape = params.shape
        if any(dim < 1 for dim in self.shape):
            raise ValueError(f"torus dimensions must be >= 1, got {self.shape}")
        # Hop counts are pure in (src, dst) and asked for millions of
        # times: one typed row per source, built on that source's first
        # query (no per-pair objects; at 256 processors the whole
        # table is 128 KB).
        self._rows: list[array | None] = [None] * self.num_nodes

    @property
    def num_nodes(self) -> int:
        x, y, z = self.shape
        return x * y * z

    def coords(self, node: int) -> tuple[int, int, int]:
        """Coordinates of a node number."""
        self._check_node(node)
        x_dim, y_dim, z_dim = self.shape
        z = node % z_dim
        y = (node // z_dim) % y_dim
        x = node // (z_dim * y_dim)
        return (x, y, z)

    def node_at(self, coords: tuple[int, int, int]) -> int:
        """Node number of a coordinate triple."""
        x, y, z = coords
        x_dim, y_dim, z_dim = self.shape
        if not (0 <= x < x_dim and 0 <= y < y_dim and 0 <= z < z_dim):
            raise ValueError(f"coords {coords} outside torus {self.shape}")
        return (x * y_dim + y) * z_dim + z

    def _ring_distance(self, a: int, b: int, size: int) -> int:
        """Shorter distance around a ring of the given size."""
        forward = (b - a) % size
        return min(forward, size - forward)

    def hops_row(self, src: int) -> array:
        """Hop counts from ``src`` to every node (dimension-order), as
        a typed array indexed by destination node number."""
        row = self._rows[src] if 0 <= src < len(self._rows) else None
        if row is None:
            sx, sy, sz = self.coords(src)
            x_dim, y_dim, z_dim = self.shape
            ring = self._ring_distance
            dx = [ring(sx, x, x_dim) for x in range(x_dim)]
            dy = [ring(sy, y, y_dim) for y in range(y_dim)]
            dz = [ring(sz, z, z_dim) for z in range(z_dim)]
            diameter = x_dim // 2 + y_dim // 2 + z_dim // 2
            row = self._rows[src] = array(
                "H" if diameter < 1 << 16 else "q",
                [hx + hy + hz for hx in dx for hy in dy for hz in dz])
        return row

    def hops(self, src: int, dst: int) -> int:
        """Number of network hops between two nodes (dimension-order)."""
        self._check_node(dst)
        return self.hops_row(src)[dst]

    def route(self, src: int, dst: int) -> list[int]:
        """The dimension-order path from src to dst, inclusive of both.

        Provided for route-level tests and visualization; the timing
        model only needs :meth:`hops`.
        """
        path = [src]
        cur = list(self.coords(src))
        target = self.coords(dst)
        for dim in range(3):
            size = self.shape[dim]
            while cur[dim] != target[dim]:
                forward = (target[dim] - cur[dim]) % size
                step = 1 if forward <= size - forward else -1
                cur[dim] = (cur[dim] + step) % size
                path.append(self.node_at(tuple(cur)))
        return path

    def hop_latency_cycles(self, src: int, dst: int) -> float:
        """One-way network latency between two nodes."""
        return self.hops(src, dst) * self.params.hop_cycles

    def neighbors(self, node: int) -> list[int]:
        """The up-to-six distinct torus neighbors of a node."""
        x, y, z = self.coords(node)
        x_dim, y_dim, z_dim = self.shape
        out = []
        for dim, size, coord in ((0, x_dim, x), (1, y_dim, y), (2, z_dim, z)):
            for step in (-1, 1):
                c = [x, y, z]
                c[dim] = (coord + step) % size
                n = self.node_at(tuple(c))
                if n != node and n not in out:
                    out.append(n)
        return out

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} outside machine of {self.num_nodes}")
