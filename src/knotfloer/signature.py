"""Knot signature via the Goeritz form of a checkerboard coloring.

The Goeritz matrix is assembled on one color class of the faces; the
signature of the knot is the signature of that form minus a correction term
summed over orientation-type-II crossings.  The signature of the form and
the determinant come from linalg.  The global sign conventions
(which color class, which diagonal counts as +1, which corner marks type II)
are frozen so that the positive-writhe (2,3) torus knot gets signature +2;
see tests for the calibration suite.
"""

from __future__ import annotations

from . import linalg


def checkerboard(d):
    """2-color the faces; returns list color[face_index] in {0, 1}.

    Color 0 is the class containing the face incident to corner (0, 0).
    """
    faces = d.faces()
    corner_face = d.face_of_corner()
    nf = len(faces)
    # adjacency: faces across each edge-end; crossing a single edge flips color.
    color = [None] * nf
    root = corner_face[(0, 0)]
    color[root] = 0
    stack = [root]
    # two corners (i,s) and (i,s') at the same crossing: same color iff s-s' even
    corners_by_face = {}
    for (i, s), f in corner_face.items():
        corners_by_face.setdefault(f, []).append((i, s))
    while stack:
        f = stack.pop()
        for (i, s) in corners_by_face[f]:
            for s2 in range(4):
                f2 = corner_face[(i, s2)]
                want = color[f] if (s2 - s) % 2 == 0 else 1 - color[f]
                if color[f2] is None:
                    color[f2] = want
                    stack.append(f2)
                elif color[f2] != want:
                    raise ValueError("faces are not checkerboard colorable")
    return color


def goeritz_data(d, white):
    """Goeritz matrix on the faces colored `white`, plus per-crossing data.

    Returns (faces_of_color, G, eta, type2) where eta[i] is the +-1 weight of
    crossing i and type2[i] marks orientation-type-II crossings.
    """
    color = checkerboard(d)
    corner_face = d.face_of_corner()
    white_faces = sorted(f for f in range(len(color)) if color[f] == white)
    index = {f: k for k, f in enumerate(white_faces)}
    nw = len(white_faces)
    G = [[0] * nw for _ in range(nw)]
    eta = []
    type2 = []
    for i in range(d.n):
        c02 = color[corner_face[(i, 0)]]
        # corners 0,2 share a color; 1,3 have the other
        white_diag = (0, 2) if c02 == white else (1, 3)
        # +1 when the corners swept by rotating the under-strand ccw onto the
        # over-strand (corners 0 and 2) are white
        e = 1 if white_diag == (0, 2) else -1
        eta.append(e)
        f1 = corner_face[(i, white_diag[0])]
        f2 = corner_face[(i, white_diag[1])]
        u, v = index[f1], index[f2]
        if u != v:
            G[u][v] -= e
            G[v][u] -= e
        # orientation type: corner between the two incoming ends (under-in at
        # slot 0, over-in at slot 1 or 3)
        oi, _ = d.over_in_out(i)
        x = d.crossings[i]
        in_corner = 0 if oi == x.b else 3
        type2.append(color[corner_face[(i, in_corner)]] != white)
    for u in range(nw):
        G[u][u] = -sum(G[u][v] for v in range(nw) if v != u)
    return white_faces, G, eta, type2


def signature(d, white=1):
    """Signature of the knot, calibrated so sigma(positive trefoil) = +2."""
    white_faces, G, eta, type2 = goeritz_data(d, white)
    # delete the last row/column (faces sum to a relation)
    reduced = [row[:-1] for row in G[:-1]]
    mu = sum(eta[i] for i in range(d.n) if type2[i])
    return linalg.signature(reduced) - mu


def determinant(d, white=1):
    """|Delta(-1)| computed from the reduced Goeritz matrix."""
    white_faces, G, eta, type2 = goeritz_data(d, white)
    reduced = [row[:-1] for row in G[:-1]]
    return abs(linalg.det(reduced))
