"""In-tree O(n^3) blossom matcher for large detection-event sets.

:mod:`networkx`'s ``max_weight_matching`` solved the off-chip matching problem
on an *auxiliary* graph: one node per detection event plus one boundary copy
per event, a zero-weight clique among the boundary copies so unused copies can
pair off, and ``maxcardinality=True`` to force a perfect matching.  That
doubles the node count (an 8x swing on an O(n^3) algorithm), materialises
O(n^2) boundary-clique edges as Python tuples, and pays networkx's
dict-of-dicts graph construction on every trial.

This module solves the identical assignment problem directly on the ``n``
event nodes via a standard *profit transformation*: choosing between "pair
events ``i`` and ``j``" and "send both to the boundary" is worth

    ``profit(i, j) = boundary[i] + boundary[j] - distance[i, j]``

so a minimum-total-distance pairing-or-boundary assignment is exactly a
**maximum-weight (non-perfect) matching** over the positive-profit edges:
events the matching leaves unmatched go to the boundary, and

    ``total_distance = sum(boundary) - matching_weight``.

Boundary copies are therefore *implicit* — no clique, no cache, no doubled
node count.  Edges with non-positive profit are dropped up front (pairing can
never beat the boundary through them), which also pins the tie-break: an
equal-cost pair-vs-boundary choice resolves to the boundary, as the
small-window enumeration's first-minimum order does.

The matching core is the classic Galil / van Rantwijk O(n^3) blossom
algorithm specialised to this workload: maximum weight (no max-cardinality
phase), strictly positive integer weights, plain-list scaffolding with numpy
only at the edges (profit and positive-edge extraction over the upper
triangle of pairs).  Iteration order over vertices and edges is fixed by the
row-major pair order, so results are deterministic for a given input — a
requirement of the repo-wide seeded-bit-identity contract.

**Greedy tight-edge pass.**  The textbook algorithm augments by one edge
per *stage*, and every stage relabels all single vertices and rescans their
edges.  On deep-history windows about half the stages augment along one
edge that was already tight between two single vertices when the stage
began, and still pay that full relabel and rescan.  So the first stage, and
every stage after one that took a dual step (delta type 2, 3 or 4), opens
by walking the edges in order and matching each tight edge whose two ends
are both single and trivial (not inside a non-trivial blossom).  This keeps
every invariant the algorithm relies on:

* matched edges are tight (the new ones have zero slack);
* all single vertices share one dual, the minimum vertex dual — the pass
  only removes vertices from that set, and every dual is left as it was;
* blossoms and their duals are untouched, since only trivial vertices are
  matched.

The duals therefore remain a feasible certificate, the later stages run as
before, and the result is still a maximum-weight matching.  Because the
single vertices all hold the same dual ``u``, the candidates are exactly the
edges of weight ``u``, so the pass only looks at those.  On the windows of
the ``mem-deep`` point (d=11, p=1e-2, 22 rounds; median 25 events, 81
positive-profit edges) it halves the stages, from 12.9 to 6.4 per window,
for 5.9 dual steps either way.  Equal-weight ties may resolve differently
from the stage-per-augmentation order, which is why the result-store salt
moved with it.

References: Galil, "Efficient algorithms for finding maximum matching in
graphs" (ACM Computing Surveys, 1986); van Rantwijk's ``mwmatching``, the
same formulation networkx derives from.
"""

from __future__ import annotations

import numpy as np

__all__ = ["match_event_pairs", "match_events", "max_weight_matching"]


def match_events(
    distance,
    boundary_distance,
) -> tuple[list[tuple[int, int]], list[int]]:
    """Exact minimum-total-distance event/boundary assignment.

    ``distance`` is the ``(n, n)`` pairwise space-time distance table,
    ``boundary_distance`` the per-event boundary distances, and the result is
    ``(pairs, boundary)`` as event indices into the caller's arrays.  It
    scales to hundreds of events (O(n^3)).

    Equal-weight solutions may differ from the enumeration's and the
    networkx oracle's — all agree on the *total* distance (asserted by the
    differential test suite), which is the quantity that fixes decoding
    accuracy.
    """
    boundary = np.asarray(boundary_distance, dtype=np.int64)
    num = int(boundary.size)
    heads, tails = np.triu_indices(num, k=1)
    dist = np.asarray(distance, dtype=np.int64).reshape(num, num)
    return match_event_pairs(boundary, heads, tails, dist[heads, tails])


def match_event_pairs(
    boundary: np.ndarray,
    heads: np.ndarray,
    tails: np.ndarray,
    pair_distance: np.ndarray,
) -> tuple[list[tuple[int, int]], list[int]]:
    """:func:`match_events` from the upper triangle of the distance table.

    ``heads``, ``tails`` are ``np.triu_indices(n, k=1)`` and
    ``pair_distance`` the distances of those pairs, so only the ``n(n-1)/2``
    pairs are ever built.  :class:`repro.decoders.mwpm.MWPMDecoder` calls
    this for windows past its small-window enumeration.
    """
    num = int(boundary.size)
    # Pairing i-j beats sending both to the boundary only when the profit is
    # strictly positive; ties resolve to the boundary (as in the small-window
    # enumeration), so non-positive edges are dropped entirely.  The kept
    # edges stay in row-major (i < j) order.
    profit = boundary[heads] + boundary[tails] - pair_distance
    kept = np.flatnonzero(profit > 0)
    if kept.size == 0:
        return [], list(range(num))
    mate = max_weight_matching(
        num,
        heads[kept].tolist(),
        tails[kept].tolist(),
        profit[kept].tolist(),
    )
    pairs = [(i, mate[i]) for i in range(num) if mate[i] > i]
    boundary_matches = [i for i in range(num) if mate[i] < 0]
    return pairs, boundary_matches


def max_weight_matching(
    num_vertices: int,
    edge_heads: list[int],
    edge_tails: list[int],
    edge_weights: list[int],
) -> list[int]:
    """Maximum-weight matching on a general graph (O(V^3) blossom algorithm).

    Takes the graph as three parallel edge lists (vertex indices in
    ``range(num_vertices)``, strictly positive integer weights) and returns
    ``mate``: ``mate[v]`` is the vertex matched to ``v``, or ``-1`` if ``v``
    is left unmatched.  Iteration order — and therefore the choice among
    equal-weight optima — is a deterministic function of the edge list order.

    Primal-dual scheme: vertex duals start at the maximum edge weight, and
    each *stage* grows a forest of alternating trees from the free vertices
    (S/T labels), shrinking odd cycles into blossoms, until an augmenting
    path of tight edges appears; between scans the duals move by the largest
    step that keeps the solution feasible (delta types 1-4).  The first
    stage, and each stage after a dual step, first matches every tight edge
    between two single trivial vertices in edge order (the greedy pass of
    the module docstring): single vertices keep one shared, minimal dual and
    no blossom changes, so optimality is kept while about half the stages
    are saved.  With integer weights every dual and slack stays integral, so
    all arithmetic below is exact; slacks are computed inline from parallel
    head/tail/doubled-weight lists.
    """
    nedge = len(edge_weights)
    if num_vertices == 0 or nedge == 0:
        return [-1] * num_vertices
    # Parallel edge lists; weights are kept doubled, the unit duals and
    # slacks are measured in (see the delta steps below).
    ehead = list(edge_heads)
    etail = list(edge_tails)
    ew2 = [2 * wt for wt in edge_weights]
    maxweight = max(edge_weights)

    # Edge endpoint p (0 <= p < 2*nedge) denotes vertex ehead[p // 2] for
    # even p and etail[p // 2] for odd p; p ^ 1 is the opposite end.
    endpoint = [0] * (2 * nedge)
    endpoint[0::2] = ehead
    endpoint[1::2] = etail
    # neighbend[v] lists the *remote* endpoints of edges incident to v.
    neighbend: list[list[int]] = [[] for _ in range(num_vertices)]
    # weightedges[wt] lists the edges of weight wt in edge order: the only
    # candidates for the greedy pass while the single vertices' dual is wt.
    weightedges: dict[int, list[int]] = {}
    for k in range(nedge):
        neighbend[ehead[k]].append(2 * k + 1)
        neighbend[etail[k]].append(2 * k)
        weightedges.setdefault(edge_weights[k], []).append(k)

    # mate[v] is the remote endpoint of v's matched edge (-1 while single);
    # converted to a plain vertex index on return.
    mate = [-1] * num_vertices

    # Labels live on top-level blossoms: 0 free, 1 S (outer), 2 T (inner);
    # labelend[b] is the endpoint through which b acquired its label.
    label = [0] * (2 * num_vertices)
    labelend = [-1] * (2 * num_vertices)

    # Blossom bookkeeping: ids 0..n-1 are the vertices themselves (trivial
    # blossoms), ids n..2n-1 are available for nested non-trivial blossoms.
    inblossom = list(range(num_vertices))
    blossomparent = [-1] * (2 * num_vertices)
    blossomchilds: list[list[int] | None] = [None] * (2 * num_vertices)
    blossombase = list(range(num_vertices)) + [-1] * num_vertices
    blossomendps: list[list[int] | None] = [None] * (2 * num_vertices)
    bestedge = [-1] * (2 * num_vertices)
    blossombestedges: list[list[int] | None] = [None] * (2 * num_vertices)
    unusedblossoms = list(range(num_vertices, 2 * num_vertices))

    # Duals: vertices start at maxweight (so every edge has non-negative
    # slack), blossoms at zero.  All values stay integral for integer input.
    # The slack of edge k is dualvar[ehead[k]] + dualvar[etail[k]] - ew2[k],
    # written out inline wherever it is needed.
    dualvar = [maxweight] * num_vertices + [0] * num_vertices

    allowedge = [False] * nedge
    queue: list[int] = []

    def blossom_leaves(b: int):
        if b < num_vertices:
            yield b
        else:
            for child in blossomchilds[b]:
                if child < num_vertices:
                    yield child
                else:
                    yield from blossom_leaves(child)

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            # b became an S-blossom: scan all its vertices.
            if b < num_vertices:
                queue.append(b)
            else:
                queue.extend(blossom_leaves(b))
        else:
            # b became a T-blossom: its matched base extends the tree as S.
            base = blossombase[b]
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w; return their lowest common tree ancestor's
        base vertex (a new blossom closes there) or -1 (augmenting path)."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:  # breadcrumb from the other path: common ancestor
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1  # reached a single (root) vertex; this path ends
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]  # b is a T-blossom; step through it
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v  # alternate between the two paths
        for b in path:
            label[b] = 1  # remove breadcrumbs
        return base

    def add_blossom(base: int, k: int) -> None:
        """Shrink the odd cycle through edge k and base into a new S-blossom."""
        v = ehead[k]
        w = etail[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomendps[b] = endps = []
        # Trace back from v to base.
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        # Trace back from w to base.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == 2:
                # Former T-vertex turned S by absorption; scan it too.
                queue.append(leaf)
            inblossom[leaf] = b
        # Merge the sub-blossoms' least-slack edge lists (delta3 bookkeeping):
        # per neighbouring S-blossom, the least-slack edge and its slack.
        bestedgeto = [-1] * (2 * num_vertices)
        bestslackto = [0] * (2 * num_vertices)
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [
                    [p // 2 for p in neighbend[leaf]]
                    for leaf in blossom_leaves(bv)
                ]
            else:
                nblists = [blossombestedges[bv]]
            for nblist in nblists:
                for edge in nblist:
                    i = ehead[edge]
                    j = etail[edge]
                    bj = inblossom[j]
                    if bj == b:
                        bj = inblossom[i]
                    if bj != b and label[bj] == 1:
                        kslack = dualvar[i] + dualvar[j] - ew2[edge]
                        if bestedgeto[bj] == -1 or kslack < bestslackto[bj]:
                            bestedgeto[bj] = edge
                            bestslackto[bj] = kslack
            blossombestedges[bv] = None
            bestedge[bv] = -1
        # The blossom's own least-slack edge: the first minimum in bj order.
        bestedges = []
        best = -1
        bestslack = 0
        for bj, edge in enumerate(bestedgeto):
            if edge != -1:
                bestedges.append(edge)
                if best == -1 or bestslackto[bj] < bestslack:
                    best = edge
                    bestslack = bestslackto[bj]
        blossombestedges[b] = bestedges
        bestedge[b] = best

    def expand_blossom(b: int, endstage: bool) -> None:
        """Expand blossom b, promoting its children to top level."""
        for s in blossomchilds[b]:
            blossomparent[s] = -1
            if s < num_vertices:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for leaf in blossom_leaves(s):
                    inblossom[leaf] = s
        # Expanding a T-blossom mid-stage: relabel the children along the
        # alternating path from the entry edge to the base, in whichever
        # direction keeps matched/unmatched edges alternating correctly.
        if (not endstage) and label[b] == 2:
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)
            if j & 1:
                j -= len(blossomchilds[b])
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                # T-sub-blossom on the path: relabel from scratch.
                label[endpoint[p ^ 1]] = 0
                label[endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick
                allowedge[p // 2] = True
                j += jstep
            # The base child keeps label T without stepping through to its
            # mate (that would re-grow the tree through the matched edge).
            bv = blossomchilds[b][j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            # Children off the path become free, unless an outside S-vertex
            # already reached one of their vertices (tracked via label[v]).
            j += jstep
            while blossomchilds[b][j] != entrychild:
                bv = blossomchilds[b][j]
                if label[bv] == 1:
                    j += jstep
                    continue
                reached = -1
                for leaf in blossom_leaves(bv):
                    if label[leaf] != 0:
                        reached = leaf
                        break
                if reached != -1:
                    label[reached] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(reached, 2, labelend[reached])
                j += jstep
        # Recycle the blossom id.
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched/unmatched edges around blossom b so v becomes its base."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= num_vertices:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)
        if i & 1:
            j -= len(blossomchilds[b])
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]
            p = blossomendps[b][j - endptrick] ^ endptrick
            if t >= num_vertices:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]
            if t >= num_vertices:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]
        blossombase[b] = blossombase[blossomchilds[b][0]]

    def augment_matching(k: int) -> None:
        """Flip matched/unmatched along the augmenting path through edge k."""
        for (s, p) in ((ehead[k], 2 * k + 1), (etail[k], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= num_vertices:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break  # reached a single vertex: path ends
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                if bt >= num_vertices:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    # The first stage, and each stage after one that moved the duals, opens
    # with a greedy pass (see the module docstring).
    greedy = True
    for _ in range(num_vertices):
        # Each stage augments the matching by at least one edge or proves no
        # augmenting path exists at the current duals (then the run is done).
        if greedy:
            # Match every tight edge between two single trivial vertices, in
            # edge order.  Single vertices all hold the minimum vertex dual
            # u, so such an edge has weight u; no blossom is touched, and the
            # duals stay optimal for the larger matching.
            greedy = False
            for k in weightedges.get(min(dualvar[:num_vertices]), ()):
                i = ehead[k]
                j = etail[k]
                if (
                    mate[i] == -1
                    and mate[j] == -1
                    and inblossom[i] == i
                    and inblossom[j] == j
                    and dualvar[i] + dualvar[j] == ew2[k]
                ):
                    mate[i] = 2 * k + 1
                    mate[j] = 2 * k
        label[:] = [0] * (2 * num_vertices)
        bestedge[:] = [-1] * (2 * num_vertices)
        blossombestedges[num_vertices:] = [None] * num_vertices
        allowedge[:] = [False] * nedge
        del queue[:]

        for v in range(num_vertices):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)

        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                dualv = dualvar[v]  # constant while v is scanned
                for p in neighbend[v]:
                    k = p >> 1
                    w = endpoint[p]
                    bw = inblossom[w]
                    if bv == bw:
                        continue  # intra-blossom edge
                    if not allowedge[k]:
                        kslack = dualv + dualvar[w] - ew2[k]
                        if kslack <= 0:
                            allowedge[k] = True
                    if allowedge[k]:
                        if label[bw] == 0:
                            # w free: grow the tree (w becomes T).
                            assign_label(w, 2, p ^ 1)
                        elif label[bw] == 1:
                            # S-S edge: blossom or augmenting path.
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                                bv = inblossom[v]
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            # w inside a T-blossom but not individually
                            # reached yet; record for expansion relabeling.
                            label[w] = 2
                            labelend[w] = p ^ 1
                    elif label[bw] == 1:
                        best = bestedge[bv]
                        if best == -1 or kslack < (
                            dualvar[ehead[best]] + dualvar[etail[best]] - ew2[best]
                        ):
                            bestedge[bv] = k
                    elif label[w] == 0:
                        best = bestedge[w]
                        if best == -1 or kslack < (
                            dualvar[ehead[best]] + dualvar[etail[best]] - ew2[best]
                        ):
                            bestedge[w] = k
            if augmented:
                break

            # No augmenting path at the current duals: take the largest
            # feasible dual step.  (Duals and slacks carry a factor 2.)
            # delta1: drive some S-vertex dual to zero (it then stays single).
            deltatype = 1
            delta = min(dualvar[:num_vertices])
            deltaedge = -1
            deltablossom = -1
            # delta2: make an S-to-free edge tight.
            for v in range(num_vertices):
                best = bestedge[v]
                if best != -1 and label[inblossom[v]] == 0:
                    d = dualvar[ehead[best]] + dualvar[etail[best]] - ew2[best]
                    if d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = best
            # delta3: make an S-to-S edge tight (half its slack).
            for b in range(2 * num_vertices):
                best = bestedge[b]
                if best != -1 and blossomparent[b] == -1 and label[b] == 1:
                    d = (dualvar[ehead[best]] + dualvar[etail[best]] - ew2[best]) // 2
                    if d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = best
            # delta4: drive a T-blossom's dual to zero (then expand it).
            for b in range(num_vertices, 2 * num_vertices):
                if (
                    blossombase[b] >= 0
                    and blossomparent[b] == -1
                    and label[b] == 2
                    and dualvar[b] < delta
                ):
                    delta = dualvar[b]
                    deltatype = 4
                    deltablossom = b

            for v in range(num_vertices):
                lbl = label[inblossom[v]]
                if lbl == 1:
                    dualvar[v] -= delta
                elif lbl == 2:
                    dualvar[v] += delta
            for b in range(num_vertices, 2 * num_vertices):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta

            if deltatype == 1:
                break  # optimum reached
            greedy = True
            if deltatype == 2:
                allowedge[deltaedge] = True
                i = ehead[deltaedge]
                queue.append(etail[deltaedge] if label[inblossom[i]] == 0 else i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                queue.append(ehead[deltaedge])
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break
        # End of stage: expand S-blossoms whose dual dropped to zero.
        for b in range(num_vertices, 2 * num_vertices):
            if (
                blossomparent[b] == -1
                and blossombase[b] >= 0
                and label[b] == 1
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    return [endpoint[p] if p >= 0 else -1 for p in mate]
